(** Reference interpreter for Occlang: executes the AST over a data
    region laid out identically to the real binary, so the observable
    behaviour (syscall trace, output, exit value) of interpreter and
    machine must match — the oracle for the differential test suite. *)

exception Interp_fault of string

val run :
  ?fuel:int ->
  ?args:string list ->
  syscall:(int -> int64 array -> Bytes.t -> int64) ->
  Ast.program ->
  int64
(** Run [main]; the handler receives (number, args, data region) per
    system call. @raise Interp_fault on memory errors or fuel
    exhaustion. *)

exception Exited of int64

val run_pure : ?fuel:int -> ?args:string list -> Ast.program -> int64 * string
(** A standard harness supporting exit/write/brk; returns (exit value or
    main's result, captured stdout). *)
