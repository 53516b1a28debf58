(** The fish-shell benchmark (Fig. 5a): a UnixBench-style script pushing
    data through a pipeline of separate utility processes —
    gen | tr | filter | wc — repeatedly. Process creation and pipe IPC
    dominate: the regime where SIPs beat EIPs by orders of magnitude. *)

val binaries : (string * Occlum_toolchain.Ast.program) list
(** Install path and program of each tool: [/bin/gen], [/bin/tr],
    [/bin/filter], [/bin/wc] and the shell [/bin/fish] (argv = repeats,
    lines per round). *)
