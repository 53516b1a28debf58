(* A bounded byte ring buffer: the kernel-side object behind pipes and
   loopback sockets. Because all SIPs share the LibOS's address space,
   IPC is a plain copy through this buffer — no encryption, no enclave
   exit — which is the SIP IPC advantage of Table 1. Each transfer is at
   most two blits, one on each side of the wrap point.

   Storage is held only while bytes are queued: an empty ring holds no
   buffer, takes one of its capacity from its pool's shelf when bytes
   arrive and shelves it again when a read drains it. A shelf is a stack
   of spare buffers of one capacity, so taking and shelving are O(1) and
   the buffer taken is the one most recently drained, still warm in the
   cache. A shelved buffer keeps its stale bytes; they are never
   readable, because every read is bounded by [len]. *)

type shelf = {
  cap : int;
  mutable spare : Bytes.t array; (* [spare.(0 .. n-1)] are free *)
  mutable n : int;
}

type pool = { mutable shelves : shelf list (* one per capacity *) }

type t = {
  shelf : shelf;
  mutable buf : Bytes.t; (* [Bytes.empty] exactly when [len = 0] *)
  mutable rpos : int;
  mutable len : int;
}

let pool () = { shelves = [] }

(* Found once per ring, at creation: a pool sees a handful of
   capacities. *)
let shelf_of pool cap =
  match List.find_opt (fun s -> s.cap = cap) pool.shelves with
  | Some s -> s
  | None ->
      let s = { cap; spare = [||]; n = 0 } in
      pool.shelves <- s :: pool.shelves;
      s

let create pool capacity =
  if capacity <= 0 then invalid_arg "Ring.create";
  { shelf = shelf_of pool capacity; buf = Bytes.empty; rpos = 0; len = 0 }

let take s =
  if s.n = 0 then Bytes.create s.cap
  else begin
    s.n <- s.n - 1;
    let b = s.spare.(s.n) in
    s.spare.(s.n) <- Bytes.empty;
    b
  end

let give s b =
  if s.n = Array.length s.spare then begin
    let a = Array.make (Int.max 4 (2 * s.n)) Bytes.empty in
    Array.blit s.spare 0 a 0 s.n;
    s.spare <- a
  end;
  s.spare.(s.n) <- b;
  s.n <- s.n + 1

let capacity t = t.shelf.cap
let length t = t.len
let free_space t = t.shelf.cap - t.len
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
  let cap = t.shelf.cap in
  let n = Int.min len (cap - t.len) in
  if n > 0 then begin
    if t.len = 0 then begin
      t.buf <- take t.shelf;
      t.rpos <- 0
    end;
    let wpos = wrap cap (t.rpos + t.len) in
    let first = Int.min n (cap - wpos) in
    Bytes.blit src off t.buf wpos first;
    Bytes.blit src (off + first) t.buf 0 (n - first);
    t.len <- t.len + n
  end;
  n

(* Read up to [len] bytes into [dst]; returns bytes produced. *)
let read t dst off len =
  check_span "Ring.read" dst off len;
  let n = Int.min len t.len in
  if n > 0 then begin
    let cap = t.shelf.cap in
    let first = Int.min n (cap - t.rpos) in
    Bytes.blit t.buf t.rpos dst off first;
    Bytes.blit t.buf 0 dst (off + first) (n - first);
    t.len <- t.len - n;
    if t.len = 0 then begin
      give t.shelf t.buf;
      t.buf <- Bytes.empty
    end
    else t.rpos <- wrap cap (t.rpos + n)
  end;
  n
