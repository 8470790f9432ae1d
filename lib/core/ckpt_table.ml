(* Indexed checkpoint tables.

   Each per-peer entry used to be a flat [Packet.t list]: [record]'s
   covered/dominates checks scanned the whole entry with stamp prefix
   comparisons (O(n) stamp walks per checkpoint, O(n^2) per run — far worse
   under [Keep_all], which is exactly the configuration the Q8 experiment
   stresses), and [discharge] filtered the full list.

   The entry is now a digit trie mirroring the call tree: a node per stamp
   prefix, packets stored at the node addressed by their stamp's digit
   path.  Because a stamp's ancestors are precisely its proper prefixes,
   walking the trie root-to-leaf visits every possible covering ancestor —
   [record]'s covered check, its descendant eviction (the subtree below the
   new node) and [discharge] are all O(depth) hops, independent of entry
   size.  Children are held in an int-keyed association list per node:
   digits are per-activation spawn counters, bounded by the program's
   static fan-out (typically < 8, and the PR-4 gauntlet asserts the bound
   holds at runtime), so a scan over unboxed int keys beats both a
   hashtable (hashing + bucket chasing per hop) and a digit-indexed array
   (repeated reallocation when a sparse high digit appears) at every
   fan-out the system produces.

   Peers are dense small ints ([Ids.proc_id]; the super-root is -1), so the
   per-peer entries live in an array indexed by [dest + 1] instead of a
   hashtable — the checkpoint fast path is then array-load + trie descent
   with no hashing and no option allocation.  [on_failure]/[entry] still
   surrender sorted lists, so callers see the exact pre-index behaviour. *)

type mode = Topmost | Keep_all

type node = {
  mutable packets : Packet.t list;
      (* newest first; all share the stamp addressed by this node's path.
         At most one element in [Topmost] mode (equal stamps are covered). *)
  mutable kids : (int * node) list;  (* keyed by next digit; fan-out bounded *)
}

type entry = { root : node; mutable count : int }

type t = { mode : mode; mutable entries : entry option array }

(* Shared "absent child" result so the descend loops never allocate an
   option.  Never mutated, never linked into a trie. *)
let nil_node = { packets = []; kids = [] }

let fresh_node () = { packets = []; kids = [] }

let create ?(mode = Topmost) () = { mode; entries = Array.make 16 None }

let mode t = t.mode

(* Entries are indexed by [dest + 1] so the super-root (-1) has a slot. *)
let slot_of dest = dest + 1

let entry_of t dest =
  let i = slot_of dest in
  let n = Array.length t.entries in
  if i >= n then begin
    let grown = Array.make (max (2 * n) (i + 1)) None in
    Array.blit t.entries 0 grown 0 n;
    t.entries <- grown
  end;
  match Array.unsafe_get t.entries i with
  | Some e -> e
  | None ->
    let e = { root = fresh_node (); count = 0 } in
    t.entries.(i) <- Some e;
    e

let find_entry t dest =
  let i = slot_of dest in
  if i < 0 || i >= Array.length t.entries then None else Array.unsafe_get t.entries i

let rec kid kids k =
  match kids with
  | [] -> nil_node
  | (d, n) :: rest -> if d = k then n else kid rest k

let kid_or_create node k =
  let n = kid node.kids k in
  if n != nil_node then n
  else begin
    let n = fresh_node () in
    node.kids <- (k, n) :: node.kids;
    n
  end

(* Walk to the node addressed by [stamp]'s digits; [nil_node] if absent. *)
let locate root stamp =
  let d = Stamp.depth stamp in
  let rec go node i =
    if i = d then node
    else
      let n = kid node.kids (Stamp.digit stamp i) in
      if n == nil_node then nil_node else go n (i + 1)
  in
  go root 0

let rec subtree_packets node acc =
  (* Prepend [node.packets] without reversing: equal-stamp packets must
     reach the stable sort newest-first, as the flat list did. *)
  let acc = List.fold_right (fun p acc -> p :: acc) node.packets acc in
  List.fold_left (fun acc (_, n) -> subtree_packets n acc) acc node.kids

let rec subtree_count node =
  List.fold_left (fun acc (_, n) -> acc + subtree_count n) (List.length node.packets) node.kids

let record t ~dest (p : Packet.t) =
  let e = entry_of t dest in
  let stamp = p.stamp in
  let d = Stamp.depth stamp in
  match t.mode with
  | Keep_all ->
    let rec descend node i =
      if i = d then begin
        node.packets <- p :: node.packets;
        e.count <- e.count + 1
      end
      else descend (kid_or_create node (Stamp.digit stamp i)) (i + 1)
    in
    descend e.root 0;
    `Recorded
  | Topmost ->
    (* Single descent: any populated node passed strictly before depth [d]
       is a proper ancestor of [stamp] — the new packet is covered.  The
       emptiness tests are pattern matches, not [<> []]: the latter is a
       polymorphic-compare call per hop on this hot path. *)
    let rec descend node i =
      match node.packets with
      | _ :: _ -> `Covered (* ancestor if i < d, identical stamp if i = d *)
      | [] ->
        if i = d then begin
          node.packets <- [ p ];
          (* The new checkpoint may dominate previously-recorded
             descendants (possible during recovery when an ancestor is
             re-spawned to the same destination); they live exactly in the
             subtree below this node — evict it wholesale.  A leaf (the
             overwhelmingly common case) has nothing below it. *)
          (match node.kids with
          | [] -> ()
          | _ :: _ ->
            let evicted = subtree_count node - 1 in
            if evicted > 0 then begin
              node.kids <- [];
              e.count <- e.count - evicted
            end);
          e.count <- e.count + 1;
          `Recorded
        end
        else descend (kid_or_create node (Stamp.digit stamp i)) (i + 1)
    in
    descend e.root 0

let discharge t ~dest stamp =
  match find_entry t dest with
  | None -> false
  | Some e ->
    let node = locate e.root stamp in
    (match node.packets with
    | [] -> false (* absent ([nil_node]) or already drained *)
    | ps ->
      e.count <- e.count - List.length ps;
      node.packets <- [];
      true)

let by_stamp (a : Packet.t) (b : Packet.t) = Stamp.compare a.stamp b.stamp

(* Gathered order is arbitrary (trie walk), but the caller-visible order
   is fixed by the stable sort: distinct stamps by [Stamp.compare], equal
   stamps kept newest-first because each node's packets stay contiguous and
   newest-first in the collected list. *)
let sorted_packets e = List.stable_sort by_stamp (subtree_packets e.root [])

let on_failure t ~failed =
  match find_entry t failed with
  | None -> []
  | Some e ->
    let ps = sorted_packets e in
    t.entries.(slot_of failed) <- None;
    ps

let entry t ~dest =
  match find_entry t dest with None -> [] | Some e -> sorted_packets e

let total_size t =
  Array.fold_left (fun acc -> function None -> acc | Some e -> acc + e.count) 0 t.entries

let destinations t =
  (* Slot order is ascending dest order, so the result is already sorted. *)
  let acc = ref [] in
  for i = Array.length t.entries - 1 downto 0 do
    match Array.unsafe_get t.entries i with
    | Some e when e.count > 0 -> acc := (i - 1) :: !acc
    | _ -> ()
  done;
  !acc
