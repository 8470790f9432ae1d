(* Each peer's entry is a [Stamp.Map] from a stamp to the packets recorded
   under it, newest first (several only in [Keep_all] mode).  Peers are
   dense small ints ([Ids.proc_id]; the super-root is -1), so the entries
   live in an array indexed by [dest + 1].

   In [Topmost] mode the keys of an entry are an antichain: no key is
   another's ancestor.  [Stamp.compare] is lexicographic, so a stamp's
   ancestors sort before it and every key between an ancestor [a] and [s]
   would descend from [a].  The only possible covering ancestor of [s] is
   therefore the greatest key <= [s], and the descendants a new [s]
   evicts are exactly the keys that directly follow it.  A discharged
   stamp is removed from its map, so an emptied entry holds nothing. *)

type mode = Topmost | Keep_all

type t = { mode : mode; mutable entries : Packet.t list Stamp.Map.t array }

let create ?(mode = Topmost) () = { mode; entries = Array.make 16 Stamp.Map.empty }

let mode t = t.mode

let find t dest =
  let i = dest + 1 in
  if i < 0 || i >= Array.length t.entries then Stamp.Map.empty else Array.unsafe_get t.entries i

let set t dest m =
  let i = dest + 1 in
  let n = Array.length t.entries in
  if i >= n then begin
    let grown = Array.make (max (2 * n) (i + 1)) Stamp.Map.empty in
    Array.blit t.entries 0 grown 0 n;
    t.entries <- grown
  end;
  t.entries.(i) <- m

let rec evict_descendants s m =
  match Stamp.Map.find_first_opt (fun k -> Stamp.compare k s > 0) m with
  | Some (k, _) when Stamp.is_ancestor s k -> evict_descendants s (Stamp.Map.remove k m)
  | _ -> m

let record t ~dest (p : Packet.t) =
  let s = p.stamp in
  let m = find t dest in
  match t.mode with
  | Keep_all ->
    set t dest
      (Stamp.Map.update s (function None -> Some [ p ] | Some ps -> Some (p :: ps)) m);
    `Recorded
  | Topmost -> (
    match Stamp.Map.find_last_opt (fun k -> Stamp.compare k s <= 0) m with
    | Some (k, _) when Stamp.equal k s || Stamp.is_ancestor k s -> `Covered
    | _ ->
      set t dest (Stamp.Map.add s [ p ] (evict_descendants s m));
      `Recorded)

let discharge t ~dest stamp =
  let m = find t dest in
  let m' = Stamp.Map.remove stamp m in
  m' != m
  && begin
    set t dest m';
    true
  end

let entry t ~dest = List.concat_map snd (Stamp.Map.bindings (find t dest))

let on_failure t ~failed =
  match entry t ~dest:failed with
  | [] -> []
  | ps ->
    set t failed Stamp.Map.empty;
    ps

let total_size t =
  Array.fold_left
    (fun acc m -> Stamp.Map.fold (fun _ ps acc -> acc + List.length ps) m acc)
    0 t.entries

let destinations t =
  (* Slot order is ascending dest order, so the result is already sorted. *)
  let acc = ref [] in
  for i = Array.length t.entries - 1 downto 0 do
    if not (Stamp.Map.is_empty t.entries.(i)) then acc := (i - 1) :: !acc
  done;
  !acc
