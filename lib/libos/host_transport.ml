(* The untrusted inter-instance transport: how frames move between two
   Occlum LibOS instances that do NOT share an enclave. Everything here
   is host-side — the host can drop, duplicate, reorder or corrupt any
   frame (the per-transport fault schedule below is exactly that
   adversary, driven by Inject.arm_channel) — so confidentiality,
   integrity, ordering and replay protection must all come from the
   secure channel layered on top (lib/cluster), never from this module.

   Frames between an ordered (src, dst) pair form a FIFO; [send]
   appends, [recv] pops. Queues are tiny in practice (the channel layer
   is stop-and-wait), so a list per direction is fine. *)

type fault =
  | Drop  (** the frame never arrives *)
  | Duplicate  (** the frame is delivered twice *)
  | Reorder  (** the frame overtakes everything already queued *)
  | Corrupt of int  (** flip this bit (mod frame length) before delivery *)

type dir = { mutable frames : string list }

type t = {
  dirs : (int * int, dir) Hashtbl.t;
  (* fault-injection seam, consulted once per [send]; production never
     sets it *)
  mutable fault : (unit -> fault option) option;
}

let create () = { dirs = Hashtbl.create 16; fault = None }

let set_fault t f = t.fault <- f

let dir_of t ~src ~dst =
  match Hashtbl.find_opt t.dirs (src, dst) with
  | Some d -> d
  | None ->
      let d = { frames = [] } in
      Hashtbl.replace t.dirs (src, dst) d;
      d

let flip_bit frame bit =
  if String.length frame = 0 then frame
  else begin
    let nbits = String.length frame * 8 in
    let bit = ((bit mod nbits) + nbits) mod nbits in
    let b = Bytes.of_string frame in
    let i = bit / 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
    Bytes.to_string b
  end

let send t ~src ~dst frame =
  let fault = match t.fault with None -> None | Some f -> f () in
  let d = dir_of t ~src ~dst in
  match fault with
  | Some Drop -> ()
  | Some Duplicate -> d.frames <- d.frames @ [ frame; frame ]
  | Some Reorder -> d.frames <- frame :: d.frames
  | Some (Corrupt bit) -> d.frames <- d.frames @ [ flip_bit frame bit ]
  | None -> d.frames <- d.frames @ [ frame ]

(* The host can also inject frames it manufactured (or captured earlier)
   wholesale — the replay-attack surface the channel layer must reject.
   It never consults the fault schedule. *)
let inject t ~src ~dst frame =
  let d = dir_of t ~src ~dst in
  d.frames <- d.frames @ [ frame ]

let recv t ~src ~dst =
  let d = dir_of t ~src ~dst in
  match d.frames with
  | [] -> None
  | f :: rest ->
      d.frames <- rest;
      Some f

let pending t ~src ~dst = List.length (dir_of t ~src ~dst).frames

let drop_pending t ~src ~dst =
  let d = dir_of t ~src ~dst in
  let n = List.length d.frames in
  d.frames <- [];
  n
