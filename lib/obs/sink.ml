type 'a t = {
  mutable emitted : int;
  mutable dropped : int;
  emit_fn : 'a t -> 'a -> unit;
  flush_fn : unit -> unit;
  close_fn : unit -> unit;
  mutable closed : bool;
}

let make ?(flush = ignore) ?(close = ignore) emit_fn =
  {
    emitted = 0;
    dropped = 0;
    emit_fn = (fun _ x -> emit_fn x);
    flush_fn = flush;
    close_fn = close;
    closed = false;
  }

(* Internal: combinators that decide per-value whether to forward need to
   bump their own drop tally, so their emit body receives the sink. *)
let make_self ?(flush = ignore) ?(close = ignore) emit_fn =
  { emitted = 0; dropped = 0; emit_fn; flush_fn = flush; close_fn = close; closed = false }

let emit t x =
  if t.closed then
    (* Counting drop policy: a closed sink swallows the value, but never
       silently — the producer can audit [dropped] afterwards. *)
    t.dropped <- t.dropped + 1
  else begin
    t.emitted <- t.emitted + 1;
    t.emit_fn t x
  end

let flush t = if not t.closed then t.flush_fn ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.close_fn ()
  end

let emitted t = t.emitted

let dropped t = t.dropped

let null () = make ignore

let of_fun ?flush ?close f = make ?flush ?close f

let tee a b =
  make
    ~flush:(fun () -> flush a; flush b)
    ~close:(fun () -> close a; close b)
    (fun x -> emit a x; emit b x)

let sample ~every inner =
  if every <= 0 then invalid_arg "Sink.sample: every must be positive";
  let seen = ref 0 in
  make_self
    ~flush:(fun () -> flush inner)
    ~close:(fun () -> close inner)
    (fun self x ->
      let k = !seen in
      seen := k + 1;
      if k mod every = 0 then emit inner x else self.dropped <- self.dropped + 1)

let line_writer ~render oc x =
  output_string oc (render x);
  output_char oc '\n'

let channel ~render oc =
  make ~flush:(fun () -> Stdlib.flush oc) ~close:(fun () -> Stdlib.flush oc) (line_writer ~render oc)

let file ~render path =
  let oc = open_out path in
  make ~flush:(fun () -> Stdlib.flush oc) ~close:(fun () -> close_out oc) (line_writer ~render oc)

module Reservoir = struct
  type 'a res = {
    cap : int;
    mutable buf : 'a array;
    mutable len : int;
    mutable pushed : int;
    mutable state : int64;  (* splitmix64, seeded — no global Random state *)
  }

  let create ~capacity ~seed =
    if capacity <= 0 then invalid_arg "Sink.Reservoir.create: capacity must be positive";
    { cap = capacity; buf = [||]; len = 0; pushed = 0; state = Int64.of_int seed }

  (* splitmix64 step — a tiny, well-mixed generator whose whole state is
     one int64, so sampling stays deterministic per seed and independent
     of any other randomness in the process. *)
  let next r =
    r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
    let z = r.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let rand_below r n =
    Int64.to_int (Int64.rem (Int64.logand (next r) Int64.max_int) (Int64.of_int n))

  (* Algorithm R: after [n] pushes every value has the same cap/n chance
     of being retained. Returns [true] when [x] was kept. *)
  let push r x =
    r.pushed <- r.pushed + 1;
    if Array.length r.buf = 0 then r.buf <- Array.make r.cap x;
    if r.len < r.cap then begin
      r.buf.(r.len) <- x;
      r.len <- r.len + 1;
      true
    end
    else begin
      let j = rand_below r r.pushed in
      if j < r.cap then begin
        r.buf.(j) <- x;
        true
      end
      else false
    end

  let to_list r = Array.to_list (Array.sub r.buf 0 r.len)

  let total r = r.pushed

  let length r = r.len

  let capacity r = r.cap

  let sink r =
    make_self (fun self x -> if not (push r x) then self.dropped <- self.dropped + 1)
end
