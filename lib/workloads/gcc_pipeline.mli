(** The GCC benchmark (Fig. 5b): a compiler driver running its phases as
    separate processes — cc spawns cpp → cc1 → as → ld — through
    temporary files on the (encrypted) file system, with cc1 burning CPU
    proportional to input size. *)

val binaries : (string * Occlum_toolchain.Ast.program) list
(** Install path and program of each phase: [/bin/cpp], [/bin/cc1],
    [/bin/as], [/bin/ld] and the driver [/bin/cc] (argv[0] = source
    path; output lands at /tmp/a.out). *)

val source_file : lines:int -> string
(** A synthetic "C" source of the given line count. *)
