(* occlum_run: boot the Occlum LibOS in a fresh simulated enclave,
   install the given signed binaries on the encrypted FS, spawn the first
   one and run the system to completion. *)

open Cmdliner

(* "128K" / "8M" / "1G" / plain bytes -> pages, rounded up *)
let parse_epc_size s =
  let fail () =
    prerr_endline ("bad --epc-size: " ^ s ^ " (use e.g. 512K, 8M, 1G)");
    exit 2
  in
  let n = String.length s in
  if n = 0 then fail ();
  let mult, digits =
    match s.[n - 1] with
    | 'k' | 'K' -> (1024, String.sub s 0 (n - 1))
    | 'm' | 'M' -> (1024 * 1024, String.sub s 0 (n - 1))
    | 'g' | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
    | '0' .. '9' -> (1, s)
    | _ -> fail ()
  in
  match int_of_string_opt digits with
  | Some v when v > 0 ->
      let bytes = v * mult in
      (bytes + Occlum_sgx.Epc.page_size - 1) / Occlum_sgx.Epc.page_size
  | _ -> fail ()

let run binaries args mode_name fs_image save_fs epc_size no_paging cores =
  let mode =
    match mode_name with
    | "sip" | "occlum" -> Occlum_libos.Os.Sip
    | "eip" | "graphene" -> Occlum_libos.Os.Eip
    | "linux" -> Occlum_libos.Os.Linux
    | other ->
        prerr_endline ("unknown mode: " ^ other ^ " (sip|eip|linux)");
        exit 2
  in
  if binaries = [] then begin
    prerr_endline "no binaries given";
    exit 2
  end;
  if cores < 1 then begin
    prerr_endline "--cores must be >= 1";
    exit 2
  end;
  let config = { Occlum_libos.Os.default_config with mode; cores } in
  let host_fs =
    match fs_image with
    | Some path when Sys.file_exists path ->
        Some (Occlum_libos.Sefs.Host_store.load path)
    | _ -> None
  in
  (* EPC demand paging is on by default (the robust configuration): a
     working set above --epc-size degrades to EWB/ELDU paging instead of
     dying on ENOMEM. --no-paging restores the hard-capped SGX1 pool. *)
  let epc =
    let pages =
      match epc_size with
      | Some s -> parse_epc_size s
      | None -> Occlum_sgx.Epc.default_size / Occlum_sgx.Epc.page_size
    in
    let epc = Occlum_sgx.Epc.create ~size:(pages * Occlum_sgx.Epc.page_size) () in
    if not no_paging then Occlum_sgx.Epc.enable_paging epc;
    epc
  in
  let os =
    try Occlum_libos.Os.boot ~config ~epc ?host_fs ()
    with Occlum_sgx.Epc.Out_of_epc ->
      prerr_endline
        "boot failed: out of EPC (raise --epc-size, or drop --no-paging to \
         page instead)";
      exit 1
  in
  let install path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    let oelf = Occlum_oelf.Oelf.of_string s in
    let name = "/bin/" ^ Filename.remove_extension (Filename.basename path) in
    Occlum_libos.Os.install_binary os name oelf;
    name
  in
  let names = List.map install binaries in
  let first = List.hd names in
  Printf.printf "booted (%s mode, %d core%s); installed: %s\nspawning %s %s\n---\n%!"
    mode_name cores
    (if cores = 1 then "" else "s")
    (String.concat " " names) first (String.concat " " args);
  (match Occlum_libos.Os.spawn os ~parent_pid:0 ~path:first ~args with
  | exception Occlum_libos.Os.Spawn_error e ->
      Printf.eprintf "spawn failed: errno %d\n" e;
      exit 1
  | _pid -> ());
  let status = Occlum_libos.Os.run ~max_steps:50_000_000 os in
  print_string (Occlum_libos.Os.console_output os);
  Printf.printf "---\n%s; %d syscalls, %d spawns, vclock %Ld us\n"
    (match status with
    | Occlum_libos.Os.All_exited -> "all processes exited"
    | Occlum_libos.Os.Deadlock pids ->
        "DEADLOCK: pids "
        ^ String.concat "," (List.map string_of_int pids)
    | Occlum_libos.Os.Quota_exhausted -> "step quota exhausted")
    os.Occlum_libos.Os.syscalls os.Occlum_libos.Os.spawns
    (Int64.div (Occlum_libos.Os.clock os) 1000L);
  List.iter
    (fun (pid, f) ->
      Printf.printf "fault: pid %d: %s\n" pid (Occlum_machine.Fault.to_string f))
    os.Occlum_libos.Os.faults;
  (match Occlum_sgx.Epc.paging_stats epc with
  | Some s when s.Occlum_sgx.Epc.ewb > 0 || s.Occlum_sgx.Epc.eldu > 0 ->
      Printf.printf "epc paging: %d evictions, %d reloads, %d integrity failures\n"
        s.Occlum_sgx.Epc.ewb s.Occlum_sgx.Epc.eldu
        s.Occlum_sgx.Epc.integrity_failures
  | _ -> ());
  match save_fs with
  | None -> ()
  | Some path ->
      Occlum_libos.Os.flush_fs os;
      Occlum_libos.Sefs.Host_store.save os.Occlum_libos.Os.sefs.Occlum_libos.Sefs.host path;
      Printf.printf "file system saved to %s\n" path

let binaries_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"BINARY.oelf...")

let args_arg =
  Arg.(value & opt_all string [] & info [ "a"; "arg" ]
         ~doc:"Argument passed to the first binary (repeatable).")

let mode_arg =
  Arg.(value & opt string "sip" & info [ "m"; "mode" ]
         ~doc:"Execution model: sip (Occlum), eip (Graphene-SGX), linux.")

let fs_arg =
  Arg.(value & opt (some string) None & info [ "fs" ]
         ~doc:"Boot over an existing encrypted FS image (see occlum_sefs).")

let save_fs_arg =
  Arg.(value & opt (some string) None & info [ "save-fs" ]
         ~doc:"Flush and save the encrypted FS image on shutdown.")

let epc_size_arg =
  Arg.(value & opt (some string) None & info [ "epc-size" ]
         ~doc:"EPC pool size (accepts K/M/G suffixes, e.g. 512K). \
               Default: the 93 MiB usable EPC of SGX1-era parts.")

let no_paging_arg =
  Arg.(value & flag & info [ "no-paging" ]
         ~doc:"Disable EPC demand paging: exceeding the pool is a hard \
               ENOMEM instead of EWB/ELDU eviction.")

let cores_arg =
  Arg.(value & opt int 1 & info [ "cores" ]
         ~doc:"Simulated vCPUs (default 1) of the epoch scheduler: \
               each epoch runs one SIP quantum per core, in parallel on \
               OCaml domains, over per-core run queues with work \
               stealing. Bit-reproducible for a fixed N.")

let cmd =
  Cmd.v
    (Cmd.info "occlum_run" ~doc:"Run OELF binaries on the Occlum LibOS")
    Term.(const run $ binaries_arg $ args_arg $ mode_arg $ fs_arg $ save_fs_arg
          $ epc_size_arg $ no_paging_arg $ cores_arg)

let () = exit (Cmd.eval cmd)
