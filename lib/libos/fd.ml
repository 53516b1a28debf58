(* File descriptors. Entries are shared structures: a spawned child
   inherits its parent's open file table "with minimal overhead" (§6) by
   sharing the very same entry objects — possible only because all SIPs
   live inside one LibOS instance.

   Multi-core ownership (cfg.cores > 1): everything in this module is
   mutated only from syscall handlers, which run in an epoch's post
   phase (Os.handle_stop), one claimed SIP at a time in core order. The
   simulated cores are virtual: every phase of every epoch runs on the
   one thread that drives the LibOS, so rings, pipes, epoll sets and
   refcounts have a single writer and need no locking. *)

type pipe = {
  ring : Ring.t;
  mutable readers : int; (* live reader entries *)
  mutable writers : int;
  mutable wake : (unit -> unit) list;
      (* readiness hooks (epoll watchers); fired on data/space/EOF edges *)
}

(* Epoll interest list: [interest] maps watched fd -> (requested events,
   unhook thunk detaching our wake hook from the watched object);
   [ready] is the candidate set maintained by those hooks, so a wait
   scans O(ready candidates), never O(watched). Level-triggered:
   candidates are re-validated against the live readiness predicate and
   only dropped when genuinely unready. *)
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

type entry = { mutable refs : int; mutable sflags : int; kind : kind }

let make kind = { refs = 1; sflags = 0; kind }

let pipe_wake (p : pipe) = List.iter (fun f -> f ()) p.wake

let release entry =
  entry.refs <- entry.refs - 1;
  if entry.refs = 0 then
    match entry.kind with
    | Pipe_r p ->
        p.readers <- p.readers - 1;
        pipe_wake p
    | Pipe_w p ->
        p.writers <- p.writers - 1;
        pipe_wake p
    | Sock { ep = Some e; _ } -> Net.close_endpoint e
    | Listener l -> Net.close_listener l
    | Epoll e ->
        Hashtbl.iter (fun _ (_, unhook) -> unhook ()) e.interest;
        Hashtbl.reset e.interest;
        Hashtbl.reset e.ready
    | File _ | Sock { ep = None; _ } | Dev_null | Dev_zero | Dev_random _
    | Console _ | Proc_file _ ->
        ()

(* The table: a growable array indexed by fd, with a lower-bound hint on
   the lowest free slot so [install] keeps POSIX lowest-fd semantics in
   O(1) amortised instead of the old assoc list's O(n²) scan. *)
type table = {
  mutable arr : entry option array;
  mutable low : int; (* no free slot exists below this index *)
}

let max_fds = 65536

let create () = { arr = Array.make 8 None; low = 0 }

let find t fd = if fd >= 0 && fd < Array.length t.arr then t.arr.(fd) else None

let ensure t fd =
  if fd >= Array.length t.arr then begin
    let n = ref (Array.length t.arr) in
    while !n <= fd do
      n := !n * 2
    done;
    let a = Array.make !n None in
    Array.blit t.arr 0 a 0 (Array.length t.arr);
    t.arr <- a
  end

let install t entry =
  let fd = ref t.low in
  let n = Array.length t.arr in
  while !fd < n && t.arr.(!fd) <> None do
    incr fd
  done;
  ensure t !fd;
  t.arr.(!fd) <- Some entry;
  t.low <- !fd + 1;
  !fd

let install_at t fd entry =
  ensure t fd;
  t.arr.(fd) <- Some entry

let close t fd =
  match find t fd with
  | None -> Error Occlum_abi.Abi.Errno.ebadf
  | Some e ->
      t.arr.(fd) <- None;
      if fd < t.low then t.low <- fd;
      release e;
      Ok ()

let close_all t =
  Array.iter (function Some e -> release e | None -> ()) t.arr;
  Array.fill t.arr 0 (Array.length t.arr) None;
  t.low <- 0

(* Child inheritance: same entries, bumped refcounts. *)
let inherit_from parent =
  let arr =
    Array.map
      (fun slot ->
        (match slot with Some e -> e.refs <- e.refs + 1 | None -> ());
        slot)
      parent.arr
  in
  { arr; low = parent.low }

let iter t f =
  Array.iteri (fun fd slot -> match slot with Some e -> f fd e | None -> ()) t.arr

let dup2 t ~src ~dst =
  if dst < 0 || dst >= max_fds then Error Occlum_abi.Abi.Errno.ebadf
  else
    match find t src with
    | None -> Error Occlum_abi.Abi.Errno.ebadf
    | Some e ->
        (match find t dst with
        | Some old when old != e ->
            t.arr.(dst) <- None;
            release old
        | _ -> ());
        if src <> dst then begin
          e.refs <- e.refs + 1;
          install_at t dst e
        end;
        Ok dst
