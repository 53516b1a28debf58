(* A bounded byte ring buffer: the kernel-side object behind pipes and
   loopback sockets. Because all SIPs share the LibOS's address space,
   IPC is a plain copy through this buffer — no encryption, no enclave
   exit — which is the SIP IPC advantage of Table 1. Each transfer is at
   most two blits, one on each side of the wrap point. *)

type t = {
  buf : Bytes.t;
  mutable rpos : int;
  mutable len : int;
}

let create capacity =
  if capacity <= 0 then invalid_arg "Ring.create";
  { buf = Bytes.create capacity; rpos = 0; len = 0 }

let capacity t = Bytes.length t.buf
let length t = t.len
let free_space t = capacity t - t.len
let is_empty t = t.len = 0

(* A bad span is rejected before any state changes: a negative [len]
   would otherwise move [rpos] backwards or make [len] negative. *)
let check_span name b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg name

(* [i] wrapped into [0, cap), for [i < 2 * cap]. *)
let wrap cap i = if i >= cap then i - cap else i

(* Write as much of [src] as fits; returns bytes consumed. *)
let write t src off len =
  check_span "Ring.write" src off len;
  let cap = capacity t in
  let n = Int.min len (cap - t.len) in
  let wpos = wrap cap (t.rpos + t.len) in
  let first = Int.min n (cap - wpos) in
  Bytes.blit src off t.buf wpos first;
  Bytes.blit src (off + first) t.buf 0 (n - first);
  t.len <- t.len + n;
  n

(* Read up to [len] bytes into [dst]; returns bytes produced. *)
let read t dst off len =
  check_span "Ring.read" dst off len;
  let cap = capacity t in
  let n = Int.min len t.len in
  let first = Int.min n (cap - t.rpos) in
  Bytes.blit t.buf t.rpos dst off first;
  Bytes.blit t.buf 0 dst (off + first) (n - first);
  t.rpos <- wrap cap (t.rpos + n);
  t.len <- t.len - n;
  n
