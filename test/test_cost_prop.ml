(* Property suite for the static cost analysis (ROADMAP item 5).

   Soundness oracle: a counting serial evaluator (a faithful mirror of
   [Eval_serial], extended to track the maximum call depth and the total
   activation count).  For random generated programs and for every shipped
   workload, whenever the analysis claims a finite entry depth or
   activation bound, the measured run must stay within it — no opt-outs.

   The generators are template families chosen to exercise each verdict
   path: guarded countdowns with random fan-out/steps (Bounded via a
   decreasing parameter), increasing counters under a guard ceiling
   (Bounded via a negated measure), list walks (Bounded via a size
   measure) and mutual two-function cycles (Bounded via the summed
   measure). *)

open Recflow_analysis
module Ast = Recflow_lang.Ast
module Builtins = Recflow_lang.Builtins
module Program = Recflow_lang.Program
module Value = Recflow_lang.Value
module Workload = Recflow_workload.Workload

let qtest = QCheck_alcotest.to_alcotest

(* ---------------- counting evaluator ---------------- *)

exception Stuck of string

(* Evaluation steps (one per expression node) the oracle takes before it
   gives up with [Stuck "fuel"]. *)
let fuel_limit = 5_000_000

(* (max call depth below the entry, total activations incl. the entry);
   mirrors Eval_serial's strict semantics via the same Builtins table *)
let measure program fname args =
  let maxd = ref 0 and calls = ref 1 and fuel = ref fuel_limit in
  let tick () =
    decr fuel;
    if !fuel <= 0 then raise (Stuck "fuel")
  in
  let rec eval_in depth env expr =
    tick ();
    match expr with
    | Ast.Int n -> Value.Int n
    | Ast.Bool b -> Value.Bool b
    | Ast.Nil -> Value.Nil
    | Ast.Var x -> (
      match List.assoc_opt x env with Some v -> v | None -> raise (Stuck ("unbound " ^ x)))
    | Ast.Prim (p, args) -> (
      let vals = Array.of_list (List.map (eval_in depth env) args) in
      match Builtins.apply p vals with Ok v -> v | Error msg -> raise (Stuck msg))
    | Ast.If (c, th, el) -> (
      match eval_in depth env c with
      | Value.Bool true -> eval_in depth env th
      | Value.Bool false -> eval_in depth env el
      | _ -> raise (Stuck "if"))
    | Ast.And (a, b) -> (
      match eval_in depth env a with
      | Value.Bool false -> Value.Bool false
      | Value.Bool true -> eval_in depth env b
      | _ -> raise (Stuck "&&"))
    | Ast.Or (a, b) -> (
      match eval_in depth env a with
      | Value.Bool true -> Value.Bool true
      | Value.Bool false -> eval_in depth env b
      | _ -> raise (Stuck "||"))
    | Ast.Let (x, bound, body) ->
      let v = eval_in depth env bound in
      eval_in depth ((x, v) :: env) body
    | Ast.Call (f, args) ->
      let vals = List.map (eval_in depth env) args in
      incr calls;
      if depth + 1 > !maxd then maxd := depth + 1;
      apply (depth + 1) f vals
  and apply depth f vals =
    match Program.find program f with
    | None -> raise (Stuck ("unknown " ^ f))
    | Some def -> eval_in depth (List.combine def.Ast.params vals) def.Ast.body
  in
  ignore (apply 0 fname args);
  (!maxd, !calls)

(* ---------------- the property ---------------- *)

(* analyze [src], run [entry args] under the oracle, and demand the
   observed depth/activations respect any finite static bound *)
let sound_for ~src ~entry ~args =
  let r = Check.check_source ~entries:[ entry ] src in
  match r.Check.cost with
  | None -> QCheck.Test.fail_reportf "no cost analysis for:\n%s" src
  | Some cost ->
    let eb = Cost.entry_bounds cost ~entry ~args in
    let d, n = measure (Option.get r.Check.program) entry args in
    (match eb.Cost.depth with
    | Some bound when d > bound ->
      QCheck.Test.fail_reportf "depth %d > static bound %d for:\n%s" d bound src
    | _ -> ());
    (match Cost.activation_bound eb with
    | Some bound when n > bound ->
      QCheck.Test.fail_reportf "%d activations > static bound %d for:\n%s" n bound src
    | _ -> ());
    true

(* ---------------- generators ---------------- *)

let countdown_src ~guard_k ~steps ~leaf ~helper =
  let calls =
    List.map (fun s -> Printf.sprintf "main(n - %d)" s) steps
    @ if helper then [ "aux(n)" ] else []
  in
  Printf.sprintf "def main(n) = if n > %d then %s else %d%s" guard_k
    (String.concat " + " calls) leaf
    (if helper then "\ndef aux(x) = x * x" else "")

(* A countdown of fan-out [nrec] whose smallest step is s recurses at
   most L = arg / s levels deep, so its call tree has at most nrec^L
   leaves.  Keep that within 3^11: the fan-out-3, step-1 tree of 11
   levels costs the oracle about 3.0M steps, under [fuel_limit], and one
   level more runs out. *)
let max_countdown_leaves = 177_147

let max_levels nrec =
  let rec go levels leaves =
    if leaves * nrec > max_countdown_leaves then levels else go (levels + 1) (leaves * nrec)
  in
  if nrec = 1 then max_countdown_leaves else go 0 1

let gen_countdown =
  QCheck.Gen.(
    let* guard_k = int_range 0 4 in
    let* nrec = int_range 1 3 in
    let* steps = list_repeat nrec (int_range 1 3) in
    let* leaf = int_range (-5) 5 in
    let* helper = bool in
    let min_step = List.fold_left min max_int steps in
    let* arg = int_range 0 (min 14 (min_step * max_levels nrec)) in
    return (countdown_src ~guard_k ~steps ~leaf ~helper, [ Value.Int arg ]))

let gen_ceiling =
  QCheck.Gen.(
    let* ceil = int_range 1 9 in
    let* step = int_range 1 2 in
    let* arg = int_range (-3) 9 in
    let src =
      Printf.sprintf "def main(n) = if n < %d then main(n + %d) else n" ceil step
    in
    return (src, [ Value.Int (min arg ceil) ]))

let gen_list_walk =
  QCheck.Gen.(
    let* len = int_range 0 12 in
    let* acc = bool in
    let src =
      if acc then
        "def main(xs) = if isnil(xs) then 0 else head(xs) + main(tail(xs))"
      else "def main(xs) = if isnil(xs) then 0 else 1 + main(tail(xs))"
    in
    let rec mk n = if n = 0 then Value.Nil else Value.Cons (Value.Int n, mk (n - 1)) in
    return (src, [ mk len ]))

let gen_mutual =
  QCheck.Gen.(
    let* s1 = int_range 1 2 in
    let* s2 = int_range 1 2 in
    let* arg = int_range 0 10 in
    let src =
      Printf.sprintf
        "def main(n) = if n > 0 then aux(n - %d) else 0\n\
         def aux(m) = if m > 0 then main(m - %d) + main(m - %d) else 1"
        s1 s2 (s2 + 1)
    in
    return (src, [ Value.Int arg ]))

let arb gen =
  QCheck.make ~print:(fun (src, args) ->
      Printf.sprintf "%s\n-- args: %s" src
        (String.concat ", " (List.map Value.to_string args)))
    gen

let prop name gen =
  QCheck.Test.make ~count:150 ~name (arb gen) (fun (src, args) ->
      sound_for ~src ~entry:"main" ~args)

(* The shape that once exhausted the oracle inside the countdown property:
   fan-out 3, step 1, with the [aux] helper.  Argument 11 is the largest
   the oracle measures within fuel (12 runs out), so it is the biggest
   tree [gen_countdown] can now produce; its static bounds must hold. *)
let countdown_fanout3 () =
  let src = countdown_src ~guard_k:0 ~steps:[ 1; 1; 1 ] ~leaf:1 ~helper:true in
  let r = Check.check_source ~entries:[ "main" ] src in
  let program = Option.get r.Check.program in
  let cost = Option.get r.Check.cost in
  let arg = max_levels 3 in
  Alcotest.(check int) "largest measurable argument" 11 arg;
  (match measure program "main" [ Value.Int (arg + 1) ] with
  | exception Stuck "fuel" -> ()
  | _ -> Alcotest.fail "one level deeper should exhaust the oracle's fuel");
  let eb = Cost.entry_bounds cost ~entry:"main" ~args:[ Value.Int arg ] in
  let d, n = measure program "main" [ Value.Int arg ] in
  (match eb.Cost.depth with
  | Some bound -> Alcotest.(check bool) (Printf.sprintf "depth %d <= %d" d bound) true (d <= bound)
  | None -> Alcotest.fail "no static depth bound");
  match Cost.activation_bound eb with
  | Some bound ->
    Alcotest.(check bool) (Printf.sprintf "activations %d <= %d" n bound) true (n <= bound)
  | None -> Alcotest.fail "no static activation bound"

(* ---------------- workload cross-check ---------------- *)

let workload_bounds () =
  let sizes = [ Workload.Tiny; Workload.Small ] in
  List.iter
    (fun (w : Workload.t) ->
      let r = Check.check_source ~entries:[ w.Workload.entry ] w.Workload.source in
      let cost = Option.get r.Check.cost in
      List.iter
        (fun size ->
          let args = w.Workload.args size in
          let eb = Cost.entry_bounds cost ~entry:w.Workload.entry ~args in
          let d, n = measure (Workload.program w) w.Workload.entry args in
          (match eb.Cost.depth with
          | Some bound when d > bound ->
            Alcotest.failf "%s: depth %d > static bound %d" w.Workload.name d bound
          | _ -> ());
          match Cost.activation_bound eb with
          | Some bound when n > bound ->
            Alcotest.failf "%s: %d activations > static bound %d" w.Workload.name n bound
          | _ -> ())
        sizes)
    (Workload.all
    @ [ Workload.synthetic ~branching:2 ~depth:4 ~grain:3;
        Workload.synthetic ~branching:3 ~depth:3 ~grain:5 ])

let suites =
  [
    ( "analysis.cost_prop",
      [
        qtest (prop "countdown programs stay within bounds" gen_countdown);
        Alcotest.test_case "fan-out 3 countdown at the fuel limit" `Quick countdown_fanout3;
        qtest (prop "guard-ceiling counters stay within bounds" gen_ceiling);
        qtest (prop "list walks stay within bounds" gen_list_walk);
        qtest (prop "mutual cycles stay within bounds" gen_mutual);
        Alcotest.test_case "workloads stay within bounds" `Quick workload_bounds;
      ] );
  ]
