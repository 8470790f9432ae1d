let base = 20

let per_hop = 10

let delay ~hops =
  if hops < 0 then invalid_arg "Latency.delay: negative hop count";
  base + (per_hop * hops)
