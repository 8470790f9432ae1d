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

let file ~render path =
  let oc = open_out path in
  make
    ~flush:(fun () -> Stdlib.flush oc)
    ~close:(fun () -> close_out oc)
    (fun x ->
      output_string oc (render x);
      output_char oc '\n')
