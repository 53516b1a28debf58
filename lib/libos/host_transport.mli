(** The untrusted host transport between Occlum instances: per ordered
    [(src, dst)] pair, a FIFO of opaque frames carried by the host.
    Nothing here is trusted — each transport's fault schedule models a
    hostile host that drops, duplicates, reorders or corrupts frames,
    and {!inject} lets it replay captured ones — so all security
    properties belong to the secure channel built on top (lib/cluster). *)

type fault =
  | Drop  (** the frame never arrives *)
  | Duplicate  (** the frame is delivered twice *)
  | Reorder  (** the frame overtakes everything already queued *)
  | Corrupt of int  (** flip this bit (mod frame length) before delivery *)

type t

val create : unit -> t

val set_fault : t -> (unit -> fault option) option -> unit
(** Fault-injection seam of this transport alone
    ({!Inject.arm_channel}): consulted once per {!send}; the returned
    fault is applied to that frame. [None] (the default) restores
    normal operation; production code never sets it. *)

val send : t -> src:int -> dst:int -> string -> unit
(** Append a frame to the [(src, dst)] FIFO, after consulting the fault
    schedule. *)

val inject : t -> src:int -> dst:int -> string -> unit
(** Host-side frame insertion (replayed or manufactured frames); never
    consults the fault schedule. *)

val recv : t -> src:int -> dst:int -> string option
(** Pop the oldest pending frame, if any. *)

val pending : t -> src:int -> dst:int -> int

val drop_pending : t -> src:int -> dst:int -> int
(** Discard everything queued in the direction (peer teardown); returns
    the number of frames dropped. *)
