(** The user/LibOS ABI: system-call numbers, flags and error codes shared
    by the toolchain's runtime library, the reference interpreter's
    harness and the LibOS dispatcher. Numbers follow Linux where one
    exists; Occlum-specific calls (spawn, futex split) live above 400. *)

module Sys : sig
  val read : int
  val write : int
  val open_ : int
  val close : int

  val fstat : int  (** returns the file size *)

  val lseek : int
  val mmap : int
  val munmap : int
  val brk : int

  val sigaction : int  (** register a handler: (signo, handler fn-ptr) *)

  val pipe : int
  val dup2 : int
  val yield : int
  val nanosleep : int
  val getpid : int
  val socket : int
  val connect : int
  val accept : int
  val send : int
  val recv : int
  val bind : int
  val listen : int
  val exit : int

  val wait : int  (** wait for a specific pid (or -1 = any child) *)

  val kill : int
  val ftruncate : int
  val rename : int
  val mkdir : int
  val unlink : int

  val fcntl : int  (** (fd, cmd, arg); F_GETFL/F_SETFL status flags only *)

  val gettime : int  (** virtual nanoseconds *)

  val epoll_create : int

  val epoll_wait : int  (** (epfd, events_buf, maxevents, timeout_ns) *)

  val epoll_ctl : int  (** (epfd, op, fd, events) *)

  val spawn : int  (** (path, path_len, argv_block, argv_len) -> pid *)

  val futex_wait : int
  val futex_wake : int

  val readdir : int  (** (fd?, path, buf, len): a path-based listing *)

  val batch : int
  (** (entries_ptr, n): submit n queued syscalls in one gate crossing;
      see {!Batch} for the entry layout *)

  val clone : int  (** (entry fn-ptr, stack_top, arg) -> tid *)

  val poll : int  (** (entries_ptr, nfds, timeout_ns); entry = fd, events, revents *)
end

module Errno : sig
  val enoent : int
  val ebadf : int
  val eagain : int
  val enomem : int
  val eaccess : int
  val efault : int
  val eexist : int
  val enotdir : int
  val eisdir : int
  val einval : int
  val efbig : int
  val espipe : int
  val epipe : int
  val enosys : int
  val enotempty : int
  val echild : int
  val esrch : int
  val econnrefused : int
end

module Open_flags : sig
  val rdonly : int
  val wronly : int
  val rdwr : int
  val creat : int
  val trunc : int
  val append : int

  val nonblock : int
  (** FD status flag (set via fcntl F_SETFL): would-block operations
      return EAGAIN instead of suspending the SIP *)
end

(** fcntl commands: only the status-flag pair is modelled. *)
module Fcntl : sig
  val getfl : int
  val setfl : int
end

module Signal : sig
  val sigkill : int
  val sigchld : int
  val max_signo : int
end

(** Register conventions for the syscall gate: number in R1, arguments in
    R2..R6, result in R0. The trampoline address is handed to _start in
    R10 and stored at data-region offset 0. *)
module Regs : sig
  val sys_nr : int
  val sys_arg0 : int
  val max_args : int
end

module Poll : sig
  val pollin : int
  val pollout : int
  val pollnval : int

  val pollhup : int  (** peer closed; reported regardless of requested events *)

  val entry_size : int  (** fd, events, revents: three i64 fields *)
end

(** The epoll-style interest-list family: level-triggered readiness with
    O(ready) waits. epoll_wait fills an array of \{fd; revents\} pairs. *)
module Epoll : sig
  val ctl_add : int
  val ctl_del : int
  val ctl_mod : int

  val event_size : int  (** fd, revents: two i64 fields *)
end

(** Batched syscalls: one trampoline crossing submits [n] queued calls and
    collects [n] results, amortising the per-call gate cost. Each entry
    is 64 bytes: nr at +0, result at +8 (written by the LibOS), then up
    to five i64 arguments at +16, +24, ... +48. *)
module Batch : sig
  val entry_size : int
  val max_entries : int
end

module Whence : sig
  val set : int
  val cur : int
  val end_ : int
end
