type t = {
  mutable flops : int;
  mutable int_ops : int;
  mutable coalesced_bytes : int;
  mutable broadcast_bytes : int;
  mutable random_accesses : int;
  mutable random_bytes : int;
}

let zero () =
  {
    flops = 0;
    int_ops = 0;
    coalesced_bytes = 0;
    broadcast_bytes = 0;
    random_accesses = 0;
    random_bytes = 0;
  }

let add acc d =
  acc.flops <- acc.flops + d.flops;
  acc.int_ops <- acc.int_ops + d.int_ops;
  acc.coalesced_bytes <- acc.coalesced_bytes + d.coalesced_bytes;
  acc.broadcast_bytes <- acc.broadcast_bytes + d.broadcast_bytes;
  acc.random_accesses <- acc.random_accesses + d.random_accesses;
  acc.random_bytes <- acc.random_bytes + d.random_bytes

let scale t k =
  {
    flops = t.flops * k;
    int_ops = t.int_ops * k;
    coalesced_bytes = t.coalesced_bytes * k;
    broadcast_bytes = t.broadcast_bytes * k;
    random_accesses = t.random_accesses * k;
    random_bytes = t.random_bytes * k;
  }

let charged t f =
  let before = scale t 1 in
  f ();
  {
    flops = t.flops - before.flops;
    int_ops = t.int_ops - before.int_ops;
    coalesced_bytes = t.coalesced_bytes - before.coalesced_bytes;
    broadcast_bytes = t.broadcast_bytes - before.broadcast_bytes;
    random_accesses = t.random_accesses - before.random_accesses;
    random_bytes = t.random_bytes - before.random_bytes;
  }

let total_bytes t = t.coalesced_bytes + t.broadcast_bytes + t.random_bytes

let is_zero t =
  t.flops = 0 && t.int_ops = 0 && t.coalesced_bytes = 0 && t.broadcast_bytes = 0
  && t.random_accesses = 0 && t.random_bytes = 0

let pp ppf t =
  Format.fprintf ppf "flops=%d int=%d coalesced=%dB broadcast=%dB random=%d(%dB)" t.flops t.int_ops
    t.coalesced_bytes t.broadcast_bytes t.random_accesses t.random_bytes
