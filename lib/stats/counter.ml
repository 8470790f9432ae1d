type set = (string, int ref) Hashtbl.t

let create_set () = Hashtbl.create 32

(* [find] rather than [find_opt]: this runs on every bump, and [find_opt]
   allocates a [Some]. *)
let cell set name =
  match Hashtbl.find set name with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Hashtbl.add set name r;
    r

let incr set name = Stdlib.incr (cell set name)

let add set name n =
  let r = cell set name in
  r := !r + n

let get set name = match Hashtbl.find_opt set name with Some r -> !r | None -> 0

let names set =
  Hashtbl.fold (fun k _ acc -> k :: acc) set [] |> List.sort String.compare

let to_alist set = List.map (fun k -> (k, get set k)) (names set)

let merge a b =
  let out = create_set () in
  let blend set = Hashtbl.iter (fun k r -> add out k !r) set in
  blend a;
  blend b;
  out

let reset set = Hashtbl.iter (fun _ r -> r := 0) set

let pp ppf set =
  List.iter (fun (k, v) -> Format.fprintf ppf "%-32s %d@." k v) (to_alist set)
