(** The lighttpd benchmark (Fig. 5c): a pre-forking web server — master +
    workers sharing the inherited listening socket — plus the artifact's
    multithreaded mode (one SIP whose request loop runs in LibOS threads
    using poll + accept). Responses carry a 10 KiB page; the harness
    plays ApacheBench from outside the enclave. *)

val port : int
val page_size : int

val response_header : string
(** The HTTP framing prepended to every page; harnesses compute the
    expected per-response byte count as
    [String.length response_header + page_size]. *)

val master_prog : Occlum_toolchain.Ast.program
(** argv: workers, requests-per-worker. *)

val mt_prog : Occlum_toolchain.Ast.program
(** The multithreaded server. argv: threads, requests-per-thread. *)

val ev_prog : Occlum_toolchain.Ast.program
(** The C10K tier: one SIP, an epoll event loop over nonblocking
    sockets. argv: total responses to serve, batch flag (nonzero routes
    the per-round reads and writes through [Abi.Sys.batch] so one gate
    crossing carries many syscalls). *)

val binaries : (string * Occlum_toolchain.Ast.program) list
val request : string
