(** File descriptors. Entries are shared structures: a spawned child
    inherits its parent's open file table "with minimal overhead" (§6)
    by sharing the very same entry objects — possible only because all
    SIPs live inside one LibOS instance. *)

type pipe = {
  ring : Ring.t;
  mutable readers : int;  (** live reader entries *)
  mutable writers : int;
  mutable wake : (unit -> unit) list;
      (** readiness hooks (epoll watchers); fired on data/space/EOF edges *)
}

(** Epoll interest list: [interest] maps watched fd to (requested
    events, unhook thunk); [ready] is the candidate set maintained by
    wake hooks so waits scan O(ready), never O(watched). *)
type epoll = {
  interest : (int, int * (unit -> unit)) Hashtbl.t;
  ready : (int, unit) Hashtbl.t;
}

type kind =
  | File of {
      node : Sefs.inode;
      mutable pos : int;
      append : bool;
      readable : bool;
      writable : bool;
    }
  | Pipe_r of pipe
  | Pipe_w of pipe
  | Sock of { mutable ep : Net.endpoint option; mutable port : int }
  | Listener of Net.listener
  | Epoll of epoll
  | Dev_null
  | Dev_zero
  | Dev_random of Occlum_util.Prng.t
  | Console of { err : bool }
  | Proc_file of { content : string; mutable pos : int }

type entry = {
  mutable refs : int;
  mutable sflags : int;  (** status flags, e.g. [Abi.Open_flags.nonblock] *)
  kind : kind;
}

val make : kind -> entry
(** A fresh entry: one reference, no status flags. *)

val pipe_wake : pipe -> unit
(** Fire the pipe's readiness hooks (data written, space freed, EOF). *)

type table

val create : unit -> table
val find : table -> int -> entry option

val install : table -> entry -> int
(** Install at the lowest free descriptor (amortised O(1)). *)

val install_at : table -> int -> entry -> unit
val close : table -> int -> (unit, int) result
val close_all : table -> unit

val inherit_from : table -> table
(** The child's table: same entries, bumped refcounts. *)

val iter : table -> (int -> entry -> unit) -> unit
val dup2 : table -> src:int -> dst:int -> (int, int) result
