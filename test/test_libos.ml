(* LibOS tests: processes (spawn/wait/exit/argv), file descriptors and
   inheritance, pipes, dup2, the FS syscalls, devfs/procfs, memory
   management, signals, threads+futex, sockets, scheduling corner cases,
   and the EIP/Linux execution modes. Programs are written in Occlang and
   run through the full compile->verify->load->execute pipeline. *)

open Occlum_toolchain.Ast
module Sys = Occlum_abi.Abi.Sys
module Errno = Occlum_abi.Abi.Errno
module F = Occlum_abi.Abi.Open_flags
module Os = Occlum_libos.Os
module Sysm = Occlum

let rt = Occlum_toolchain.Runtime.program

(* Build a system with [binaries] installed and run /bin/app. *)
let run_system ?(mode = Os.Sip) ?(binaries = []) ?(args = []) main_prog =
  let config = { Os.default_config with mode } in
  let os = Os.boot ~config () in
  let build prog =
    let cfg =
      if mode = Os.Linux then Occlum_toolchain.Codegen.bare
      else Occlum_toolchain.Codegen.sfi
    in
    let oelf = Occlum_toolchain.Compile.compile_exn ~config:cfg prog in
    if mode = Os.Linux then oelf
    else
      match Occlum_verifier.Verify.verify_and_sign oelf with
      | Ok s -> s
      | Error rs ->
          failwith (Occlum_verifier.Verify.rejection_to_string (List.hd rs))
  in
  List.iter (fun (p, prog) -> Os.install_binary os p (build prog)) binaries;
  Os.install_binary os "/bin/app" (build main_prog);
  let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args in
  let status = Os.run ~max_steps:2_000_000 os in
  let exit_code =
    match Os.find_proc os pid with Some p -> p.exit_code | None -> 0
  in
  (os, status, exit_code)

let check_run ?mode ?binaries ?args ~exit_code ~output prog =
  let os, status, code = run_system ?mode ?binaries ?args prog in
  (match status with
  | Os.All_exited -> ()
  | Os.Deadlock pids ->
      Alcotest.fail
        ("deadlock: " ^ String.concat "," (List.map string_of_int pids))
  | Os.Quota_exhausted -> Alcotest.fail "quota exhausted");
  Alcotest.(check int) "exit code" exit_code code;
  Alcotest.(check string) "console" output (Os.console_output os);
  os

let test_hello () =
  ignore
    (check_run ~exit_code:5 ~output:"hello libos\n"
       (rt
          [
            func "main" []
              [
                Expr (Call ("print_cstr", [ Str "hello libos\n" ]));
                Return (i 5);
              ];
          ]))

let test_spawn_wait_argv () =
  let child =
    rt
      [
        func "main" []
          [
            Expr (Call ("print_cstr", [ Call ("argv", [ i 0 ]) ]));
            Expr (Call ("puts", [ Str "\n"; i 1 ]));
            Return (Call ("atoi", [ Call ("argv", [ i 1 ]) ]));
          ];
      ]
  in
  let parent =
    rt
      [
        func "main" []
          [
            Let ("blk", Global_addr "_rt_spawn_buf");
            Expr (Call ("memcpy", [ v "blk"; Str "first"; i 5 ]));
            Store1 (v "blk" +: i 5, i 0);
            Expr (Call ("memcpy", [ v "blk" +: i 6; Str "42"; i 2 ]));
            Store1 (v "blk" +: i 8, i 0);
            Let ("pid", Call ("spawn_argv", [ Str "/bin/child"; i 10; v "blk"; i 9 ]));
            Let ("st", Global_addr "_rt_misc_buf");
            Let ("got", Call ("waitpid", [ v "pid"; v "st" ]));
            If (v "got" <>: v "pid", [ Return (i 1) ], []);
            Expr (Call ("print_int", [ Load (v "st") ]));
            Expr (Call ("puts", [ Str "\n"; i 1 ]));
            Return (i 0);
          ];
      ]
  in
  ignore
    (check_run
       ~binaries:[ ("/bin/child", child) ]
       ~exit_code:0 ~output:"first\n42\n" parent)

let test_spawn_missing_binary () =
  ignore
    (check_run ~exit_code:(-Errno.enoent)
       ~output:""
       (rt
          [
            func "main" []
              [ Return (Unop (Neg, Call ("spawn0", [ Str "/bin/ghost"; i 10 ]))) ];
          ]))

let test_wait_echild () =
  ignore
    (check_run ~exit_code:(-Errno.echild) ~output:""
       (rt
          [
            func "main" []
              [ Return (Unop (Neg, Call ("waitpid", [ i 99; i 0 ]))) ];
          ]))

let test_pipe_roundtrip () =
  ignore
    (check_run ~exit_code:0 ~output:"12345"
       (rt
          [
            func "main" []
              [
                Let ("fds", Global_addr "_rt_misc_buf");
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                Let ("r", Load (v "fds"));
                Let ("w", Load (v "fds" +: i 8));
                Expr (Call ("write", [ v "w"; Str "12345"; i 5 ]));
                Let ("buf", Call ("malloc", [ i 16 ]));
                Let ("n", Call ("read", [ v "r"; v "buf"; i 16 ]));
                Expr (Call ("puts", [ v "buf"; v "n" ]));
                Return (i 0);
              ];
          ]))

let test_pipe_eof_and_epipe () =
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("fds", Global_addr "_rt_misc_buf");
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                (* close the writer: read returns 0 (EOF) *)
                Expr (Call ("close", [ Load (v "fds" +: i 8) ]));
                Let ("buf", Call ("malloc", [ i 8 ]));
                Let ("n", Call ("read", [ Load (v "fds"); v "buf"; i 8 ]));
                If (v "n" <>: i 0, [ Return (i 1) ], []);
                (* new pipe; close the reader: write returns EPIPE *)
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                Expr (Call ("close", [ Load (v "fds") ]));
                Let ("m", Call ("write", [ Load (v "fds" +: i 8); v "buf"; i 4 ]));
                If (v "m" <>: i (Errno.epipe), [ Return (i 2) ], []);
                Return (i 0);
              ];
          ]))

let test_fs_syscalls () =
  ignore
    (check_run ~exit_code:0 ~output:"content|content"
       (rt
          [
            func "main" []
              [
                Let ("fd", Call ("open", [ Str "/f.txt"; i 6;
                                           i (F.creat lor F.wronly) ]));
                If (v "fd" <: i 0, [ Return (i 1) ], []);
                Expr (Call ("write", [ v "fd"; Str "content"; i 7 ]));
                Expr (Call ("close", [ v "fd" ]));
                (* read back *)
                Let ("fd2", Call ("open", [ Str "/f.txt"; i 6; i 0 ]));
                Let ("buf", Call ("malloc", [ i 32 ]));
                Let ("n", Call ("read", [ v "fd2"; v "buf"; i 32 ]));
                Expr (Call ("puts", [ v "buf"; v "n" ]));
                Expr (Call ("puts", [ Str "|"; i 1 ]));
                (* lseek back to 0 and reread *)
                Expr (Syscall (Sys.lseek, [ v "fd2"; i 0; i 0 ]));
                Let ("m", Call ("read", [ v "fd2"; v "buf"; i 32 ]));
                Expr (Call ("puts", [ v "buf"; v "m" ]));
                (* fstat: size must be 7 *)
                Let ("stat", Global_addr "_rt_misc_buf");
                Expr (Syscall (Sys.fstat, [ v "fd2"; v "stat" ]));
                If (Load (v "stat") <>: i 7, [ Return (i 3) ], []);
                Expr (Call ("close", [ v "fd2" ]));
                (* unlink, then the open must fail *)
                Expr (Syscall (Sys.unlink, [ Str "/f.txt"; i 6 ]));
                Let ("fd3", Call ("open", [ Str "/f.txt"; i 6; i 0 ]));
                If (v "fd3" <>: i Errno.enoent, [ Return (i 4) ], []);
                Return (i 0);
              ];
          ]))

let test_append_and_trunc () =
  ignore
    (check_run ~exit_code:0 ~output:"abXY|Z"
       (rt
          [
            func "main" []
              [
                Let ("fd", Call ("open", [ Str "/f"; i 2; i (F.creat lor F.wronly) ]));
                Expr (Call ("write", [ v "fd"; Str "ab"; i 2 ]));
                Expr (Call ("close", [ v "fd" ]));
                (* append *)
                Let ("fa", Call ("open", [ Str "/f"; i 2; i F.append ]));
                Expr (Call ("write", [ v "fa"; Str "XY"; i 2 ]));
                Expr (Call ("close", [ v "fa" ]));
                Let ("buf", Call ("malloc", [ i 16 ]));
                Let ("fr", Call ("open", [ Str "/f"; i 2; i 0 ]));
                Let ("n", Call ("read", [ v "fr"; v "buf"; i 16 ]));
                Expr (Call ("puts", [ v "buf"; v "n" ]));
                Expr (Call ("close", [ v "fr" ]));
                Expr (Call ("puts", [ Str "|"; i 1 ]));
                (* truncate *)
                Let ("ft", Call ("open", [ Str "/f"; i 2;
                                           i (F.wronly lor F.trunc) ]));
                Expr (Call ("write", [ v "ft"; Str "Z"; i 1 ]));
                Expr (Call ("close", [ v "ft" ]));
                Let ("fr2", Call ("open", [ Str "/f"; i 2; i 0 ]));
                Let ("m", Call ("read", [ v "fr2"; v "buf"; i 16 ]));
                Expr (Call ("puts", [ v "buf"; v "m" ]));
                Return (i 0);
              ];
          ]))

let test_devfs_procfs () =
  ignore
    (check_run ~exit_code:0 ~output:"ok"
       (rt
          [
            func "main" []
              [
                Let ("buf", Call ("malloc", [ i 64 ]));
                (* /dev/zero reads zeros *)
                Let ("fz", Call ("open", [ Str "/dev/zero"; i 9; i 0 ]));
                Expr (Call ("read", [ v "fz"; v "buf"; i 8 ]));
                If (Load (v "buf") <>: i 0, [ Return (i 1) ], []);
                (* /dev/null swallows writes, reads EOF *)
                Let ("fn", Call ("open", [ Str "/dev/null"; i 9; i 1 ]));
                If (Call ("write", [ v "fn"; v "buf"; i 8 ]) <>: i 8,
                    [ Return (i 2) ], []);
                If (Call ("read", [ v "fn"; v "buf"; i 8 ]) <>: i 0,
                    [ Return (i 3) ], []);
                (* /dev/urandom returns bytes *)
                Let ("fr", Call ("open", [ Str "/dev/urandom"; i 12; i 0 ]));
                If (Call ("read", [ v "fr"; v "buf"; i 8 ]) <>: i 8,
                    [ Return (i 4) ], []);
                (* /proc/self/status mentions our pid *)
                Let ("fp", Call ("open", [ Str "/proc/self/status"; i 17; i 0 ]));
                Let ("n", Call ("read", [ v "fp"; v "buf"; i 64 ]));
                If (v "n" <=: i 0, [ Return (i 5) ], []);
                (* /proc/meminfo exists *)
                Let ("fm", Call ("open", [ Str "/proc/meminfo"; i 13; i 0 ]));
                If (Call ("read", [ v "fm"; v "buf"; i 64 ]) <=: i 0,
                    [ Return (i 6) ], []);
                Expr (Call ("puts", [ Str "ok"; i 2 ]));
                Return (i 0);
              ];
          ]))

let test_mmap_brk () =
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                (* brk grows and shrinks *)
                Let ("cur", Syscall (Sys.brk, [ i 0 ]));
                Let ("grown", Syscall (Sys.brk, [ v "cur" +: i 4096 ]));
                If (v "grown" <>: v "cur" +: i 4096, [ Return (i 1) ], []);
                (* mmap returns zeroed writable memory *)
                Let ("m", Syscall (Sys.mmap, [ i 0; i 8192; i (-1); i 0 ]));
                If (v "m" <=: i 0, [ Return (i 2) ], []);
                If (Load (v "m") <>: i 0, [ Return (i 3) ], []);
                Store (v "m", i 77);
                If (Load (v "m") <>: i 77, [ Return (i 4) ], []);
                (* munmap exact range works; wrong range is EINVAL *)
                If (Syscall (Sys.munmap, [ v "m"; i 4096 ]) <>: i Errno.einval,
                    [ Return (i 5) ], []);
                If (Syscall (Sys.munmap, [ v "m"; i 8192 ]) <>: i 0,
                    [ Return (i 6) ], []);
                (* overgrown brk fails with ENOMEM *)
                If (Syscall (Sys.brk, [ v "cur" +: i (64 * 1024 * 1024) ])
                    <>: i Errno.enomem,
                    [ Return (i 7) ], []);
                Return (i 0);
              ];
          ]))

let test_signals () =
  (* parent registers a SIGUSR1 handler; child kills parent; handler
     runs, then control returns to the interrupted loop via sigreturn *)
  let child =
    rt
      [
        func "main" []
          [
            Let ("ppid", Call ("atoi", [ Call ("argv", [ i 0 ]) ]));
            Expr (Syscall (Sys.kill, [ v "ppid"; i 10 ]));
            Return (i 0);
          ];
      ]
  in
  let parent =
    rt
      ~globals:[ ("flag", 8) ]
      [
        func "on_usr1" [ "signo" ]
          [
            Expr (Call ("print_cstr", [ Str "sig=" ]));
            Expr (Call ("print_int", [ v "signo" ]));
            Expr (Call ("puts", [ Str "\n"; i 1 ]));
            Store (Global_addr "flag", i 1);
            Return (i 0);
          ];
        func "main" []
          [
            Expr (Syscall (Sys.sigaction, [ i 10; Func_addr "on_usr1" ]));
            Let ("pid",
                 Call ("spawn1",
                       [ Str "/bin/child"; i 10;
                         Call ("itoa", [ Call ("getpid", []) ]);
                         (Global_addr "_rt_itoa_buf" +: i 31)
                         -: Call ("itoa", [ Call ("getpid", []) ]) ]));
            Expr (Call ("waitpid", [ v "pid"; i 0 ]));
            (* wait until the handler has run *)
            While (Load (Global_addr "flag") =: i 0,
                   [ Expr (Call ("yield", [])) ]);
            Expr (Call ("print_cstr", [ Str "handled\n" ]));
            Return (i 0);
          ];
      ]
  in
  ignore
    (check_run
       ~binaries:[ ("/bin/child", child) ]
       ~exit_code:0 ~output:"sig=10\nhandled\n" parent)

let test_default_signal_kills () =
  let target =
    rt [ func "main" [] [ While (i 1, [ Expr (Call ("yield", [])) ]); Return (i 0) ] ]
  in
  let killer =
    rt
      [
        func "main" []
          [
            Let ("pid", Call ("spawn0", [ Str "/bin/victim"; i 11 ]));
            Expr (Syscall (Sys.kill, [ v "pid"; i 15 ]));
            Let ("st", Global_addr "_rt_misc_buf");
            Expr (Call ("waitpid", [ v "pid"; v "st" ]));
            Return (Load (v "st"));
          ];
      ]
  in
  let _, _, code = run_system ~binaries:[ ("/bin/victim", target) ] killer in
  Alcotest.(check int) "128+SIGTERM" (128 + 15) code

(* clone a thread that increments a shared counter and futex-wakes *)
let threads_futex_prog =
  rt
    ~globals:[ ("counter", 8); ("futex", 8) ]
    [
      func "worker" [ "arg" ]
        [
          Store (Global_addr "counter", v "arg" +: i 100);
          Store (Global_addr "futex", i 1);
          Expr (Syscall (Sys.futex_wake, [ Global_addr "futex"; i 1 ]));
          Return (i 0);
        ];
      func "main" []
        [
          Let ("stack", Syscall (Sys.mmap, [ i 0; i 16384; i (-1); i 0 ]));
          Let ("tid",
               Syscall (Sys.clone, [ Func_addr "worker"; v "stack" +: i 16384; i 5 ]));
          If (v "tid" <: i 0, [ Return (i 1) ], []);
          (* futex-wait until the worker signals *)
          While (Load (Global_addr "futex") =: i 0,
                 [ Expr (Syscall (Sys.futex_wait, [ Global_addr "futex"; i 0 ])) ]);
          Expr (Call ("waitpid", [ v "tid"; i 0 ]));
          Return (Load (Global_addr "counter"));
        ];
    ]

let test_threads_futex () =
  let _, status, code = run_system threads_futex_prog in
  Alcotest.(check bool) "finished" true (status = Os.All_exited);
  Alcotest.(check int) "shared memory" 105 code

(* A bare build carries no cfi_labels, so the native model must not ask
   for one at the thread entry. *)
let test_threads_futex_linux () =
  let _, status, code = run_system ~mode:Os.Linux threads_futex_prog in
  Alcotest.(check bool) "finished" true (status = Os.All_exited);
  Alcotest.(check int) "shared memory" 105 code

let test_sockets () =
  let prog =
    rt
      [
        func "main" []
          [
            (* connect to a port nobody listens on *)
            Let ("s0", Syscall (Sys.socket, []));
            If (Syscall (Sys.connect, [ v "s0"; i 7777 ]) <>: i Errno.econnrefused,
                [ Return (i 1) ], []);
            (* self-talk through the loopback: listen, connect, accept *)
            Let ("ls", Syscall (Sys.socket, []));
            Expr (Syscall (Sys.bind, [ v "ls"; i 9000 ]));
            If (Syscall (Sys.listen, [ v "ls"; i 4 ]) <>: i 0, [ Return (i 2) ], []);
            Let ("cl", Syscall (Sys.socket, []));
            If (Syscall (Sys.connect, [ v "cl"; i 9000 ]) <>: i 0, [ Return (i 3) ], []);
            Let ("srv", Syscall (Sys.accept, [ v "ls" ]));
            If (v "srv" <: i 0, [ Return (i 4) ], []);
            Expr (Syscall (Sys.send, [ v "cl"; Str "ping"; i 4 ]));
            Let ("buf", Call ("malloc", [ i 16 ]));
            Let ("n", Syscall (Sys.recv, [ v "srv"; v "buf"; i 16 ]));
            Expr (Call ("puts", [ v "buf"; v "n" ]));
            Expr (Syscall (Sys.send, [ v "srv"; Str "pong"; i 4 ]));
            Let ("m", Syscall (Sys.recv, [ v "cl"; v "buf"; i 16 ]));
            Expr (Call ("puts", [ v "buf"; v "m" ]));
            Return (i 0);
          ];
      ]
  in
  ignore
    (match run_system prog with
    | os, Os.All_exited, 0 ->
        Alcotest.(check string) "ping-pong" "pingpong" (Os.console_output os)
    | _, _, code -> Alcotest.fail (Printf.sprintf "exit %d" code))

let test_dup2_inheritance () =
  (* covered heavily by the fish workload; check the syscall surface *)
  ignore
    (check_run ~exit_code:0 ~output:"to-nine"
       (rt
          [
            func "main" []
              [
                If (Syscall (Sys.dup2, [ i 1; i 9 ]) <>: i 9, [ Return (i 1) ], []);
                Expr (Call ("write", [ i 9; Str "to-nine"; i 7 ]));
                If (Syscall (Sys.dup2, [ i 42; i 5 ]) <>: i Errno.ebadf,
                    [ Return (i 2) ], []);
                Return (i 0);
              ];
          ]))

let test_sleep_gettime () =
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("t0", Call ("gettime", []));
                Expr (Syscall (Sys.nanosleep, [ i 1000000 ]));
                Let ("t1", Call ("gettime", []));
                If (v "t1" -: v "t0" <: i 1000000, [ Return (i 1) ], []);
                Return (i 0);
              ];
          ]))

let test_deadlock_detection () =
  (* reading from a pipe whose writer we still hold: blocks forever *)
  let prog =
    rt
      [
        func "main" []
          [
            Let ("fds", Global_addr "_rt_misc_buf");
            Expr (Syscall (Sys.pipe, [ v "fds" ]));
            Let ("buf", Call ("malloc", [ i 8 ]));
            Expr (Call ("read", [ Load (v "fds"); v "buf"; i 8 ]));
            Return (i 0);
          ];
      ]
  in
  let _, status, _ = run_system prog in
  match status with
  | Os.Deadlock [ _ ] -> ()
  | _ -> Alcotest.fail "expected deadlock"

let test_slot_exhaustion () =
  (* more live processes than domain slots: spawn returns EAGAIN *)
  let sleeper =
    rt [ func "main" [] [ While (i 1, [ Expr (Call ("yield", [])) ]); Return (i 0) ] ]
  in
  let spawner =
    rt
      [
        func "main" []
          [
            Let ("k", i 0);
            Let ("err", i 0);
            While
              ( v "k" <: i 20,
                [
                  Let ("r", Call ("spawn0", [ Str "/bin/sleeper"; i 12 ]));
                  If (v "r" =: i Errno.eagain, [ Assign ("err", i 1) ], []);
                  Assign ("k", v "k" +: i 1);
                ] );
            Return (v "err");
          ];
      ]
  in
  let config =
    { Os.default_config with
      domains = { Occlum_libos.Domain_mgr.default_config with max_domains = 4 } }
  in
  let os = Os.boot ~config () in
  let build prog =
    match
      Occlum_verifier.Verify.verify_and_sign
        (Occlum_toolchain.Compile.compile_exn
           ~config:Occlum_toolchain.Codegen.sfi prog)
    with
    | Ok s -> s
    | Error _ -> failwith "verify"
  in
  Os.install_binary os "/bin/sleeper" (build sleeper);
  Os.install_binary os "/bin/app" (build spawner);
  let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
  ignore (Os.wait_pid_exit ~max_steps:500_000 os pid);
  (match Os.find_proc os pid with
  | Some p -> Alcotest.(check int) "hit EAGAIN" 1 p.exit_code
  | None -> Alcotest.fail "spawner vanished")

let sign prog =
  match
    Occlum_verifier.Verify.verify_and_sign
      (Occlum_toolchain.Compile.compile_exn
         ~config:Occlum_toolchain.Codegen.sfi prog)
  with
  | Ok s -> s
  | Error _ -> failwith "verify"

(* A program's own zones depend only on its globals and literals, so
   build once to learn them and again with them as constants. *)
let with_zones prog =
  let o = sign (prog (0, 0, 0)) in
  let lo, hi = Occlum_oelf.Oelf.heap_zone o in
  let o' = sign (prog (lo, hi, o.Occlum_oelf.Oelf.data_region_size)) in
  Alcotest.(check bool) "zones stable" true
    (Occlum_oelf.Oelf.heap_zone o' = (lo, hi));
  o'

(* Confidentiality across slot reuse rests on the loader's scrub: SIP
   memory is read and written directly by the compiled tier, with no
   per-page ownership check. A first SIP fills its heap and everything
   past its stack with a pattern, and has the LibOS write /dev/urandom
   bytes (privileged writes only) into the top half of its data region;
   its code image is larger than the next one's. The next occupant of
   the same slot must read zeros over every byte of its data region it
   did not write itself, and the code region past its image must be
   zero too. *)
let test_slot_scrub () =
  let data_size = Occlum_libos.Domain_mgr.default_config.domain_data_size in
  let half = data_size / 2 in
  let fill p stop value =
    While (p <: stop, [ Store (p, value); Assign ("p", p +: i 8) ])
  in
  let filler (lo, hi, top) =
    rt
      [
        func "main" []
          ([
             Let ("p", Data_addr lo);
             fill (v "p") (Data_addr hi) (Int 0x5A5A_A5A5_5A5A_A5A5L);
             Assign ("p", Data_addr top);
             fill (v "p") (Data_addr half) (Int 0x0123_4567_89AB_CDEFL);
             Let ("fd", Call ("open", [ Str "/dev/urandom"; i 12; i F.rdonly ]));
             Assign ("p", Data_addr half);
             While
               ( v "p" <: Data_addr data_size,
                 [
                   Expr (Call ("read", [ v "fd"; v "p"; i 4096 ]));
                   Assign ("p", v "p" +: i 4096);
                 ] );
           ]
          (* dead code, only to make this image larger than the reader's *)
          @ List.init 200 (fun k ->
                If (v "fd" =: i (-1000 - k), [ Store (Data_addr 4096, i k) ], [])
            )
          @ [ Return (i 0) ]);
      ]
  in
  let reader (lo, hi, top) =
    let scan lo hi =
      [
        Assign ("p", Data_addr lo);
        While
          ( v "p" <: Data_addr hi,
            [
              Assign ("bad", v "bad" |: Load (v "p"));
              Assign ("p", v "p" +: i 8);
            ] );
      ]
    in
    rt
      [
        func "main" []
          ([ Let ("bad", i 0); Let ("p", i 0) ]
          @ scan lo hi @ scan top data_size
          @ [ Return (Unop (Lnot, Unop (Lnot, v "bad"))) ]);
      ]
  in
  let config =
    { Os.default_config with
      domains = { Occlum_libos.Domain_mgr.default_config with max_domains = 1 } }
  in
  let os = Os.boot ~config () in
  Os.install_binary os "/bin/filler" (with_zones filler);
  Os.install_binary os "/bin/reader" (with_zones reader);
  let run path =
    let pid = Os.spawn os ~parent_pid:0 ~path ~args:[] in
    Alcotest.(check bool) (path ^ " spawned") true (pid > 0);
    let p =
      match Os.find_proc os pid with
      | Some p -> p
      | None -> Alcotest.fail (path ^ " vanished")
    in
    ignore (Os.wait_pid_exit ~max_steps:2_000_000 os pid);
    Alcotest.(check int) (path ^ " exit code") 0 p.Os.exit_code;
    p
  in
  let f = run "/bin/filler" in
  let slot = f.Os.img.Occlum_libos.Loader.slot in
  let d_base = Occlum_libos.Domain_mgr.d_base slot in
  let sample =
    Occlum_machine.Mem.read_bytes_priv os.Os.mem ~addr:(d_base + half)
      ~len:4096
  in
  Alcotest.(check bool) "urandom left a pattern" true
    (Bytes.exists (fun c -> c <> '\x00') sample);
  let r = run "/bin/reader" in
  Alcotest.(check int) "same slot" slot.id r.Os.img.Occlum_libos.Loader.slot.id;
  let c_base = Occlum_libos.Domain_mgr.c_base slot in
  let code_len (p : Os.proc) =
    Bytes.length p.Os.img.Occlum_libos.Loader.oelf.Occlum_oelf.Oelf.code
  in
  let image = code_len r in
  Alcotest.(check bool) "filler's code image is the larger" true
    (code_len f > image);
  let tail =
    Occlum_machine.Mem.read_bytes_priv os.Os.mem ~addr:(c_base + image)
      ~len:(slot.code_size - image)
  in
  Alcotest.(check bool) "code region past the image is zero" true
    (Bytes.for_all (fun c -> c = '\x00') tail)

(* An unchanged code image never excuses a dirty data page: a program
   that checks its heap, the unused part of its stack and everything past
   its stack read zero, then fills them with a pattern, runs twice in the
   same slot, and the second run must read zeros again. *)
let test_slot_reuse_same_binary () =
  let data_size = Occlum_libos.Domain_mgr.default_config.domain_data_size in
  let region lo hi body =
    [ Assign ("p", lo); While (v "p" <: hi, body @ [ Assign ("p", v "p" +: i 8) ]) ]
  in
  let prog (lo, hi, top) =
    let zones =
      [ (Data_addr lo, Data_addr hi);
        (* the stack below main's frame, with a page of margin for the
           runtime's own calls *)
        (Data_addr hi, v "stack");
        (Data_addr top, Data_addr data_size) ]
    in
    rt
      [
        func "main" []
          ([ Let ("bad", i 0); Let ("p", i 0);
             Let ("stack", Frame_addr "bad" -: i 4096) ]
          @ List.concat_map
              (fun (lo, hi) ->
                region lo hi [ Assign ("bad", v "bad" |: Load (v "p")) ])
              zones
          @ List.concat_map
              (fun (lo, hi) ->
                region lo hi [ Store (v "p", Int 0x5A5A_A5A5_5A5A_A5A5L) ])
              zones
          @ [ Return (Unop (Lnot, Unop (Lnot, v "bad"))) ]);
      ]
  in
  let config =
    { Os.default_config with
      domains = { Occlum_libos.Domain_mgr.default_config with max_domains = 1 } }
  in
  let os = Os.boot ~config () in
  Os.install_binary os "/bin/app" (with_zones prog);
  let run what =
    let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
    ignore (Os.wait_pid_exit ~max_steps:2_000_000 os pid);
    match Os.find_proc os pid with
    | Some p ->
        Alcotest.(check int) (what ^ ": read only zeros") 0 p.Os.exit_code;
        p.Os.img.Occlum_libos.Loader.slot
    | None -> Alcotest.fail (what ^ ": vanished")
  in
  let first = run "first run" in
  let d_base = Occlum_libos.Domain_mgr.d_base first in
  let sample =
    Occlum_machine.Mem.read_bytes_priv os.Os.mem ~addr:(d_base + data_size - 4096)
      ~len:4096
  in
  Alcotest.(check bool) "first run left its pattern" true
    (Bytes.exists (fun c -> c <> '\x00') sample);
  let second = run "second run" in
  Alcotest.(check int) "same slot" first.id second.id

(* A respawn into the slot its binary last ran in finds every code page
   already holding its image, so the loader writes none of them and the
   JIT's translations stay valid: a second run of the same binary
   compiles nothing and drops nothing. A different binary in that slot
   changes the code pages, so its run drops the stale translations and
   compiles its own, and so does the first binary's next run. *)
let test_respawn_keeps_translations () =
  let counter name limit =
    rt
      [
        func "main" []
          [
            Let ("k", i 0);
            Let ("sum", i 0);
            While
              ( v "k" <: i limit,
                [ Assign ("sum", v "sum" +: v "k"); Assign ("k", v "k" +: i 1) ] );
            Expr (Call ("print_cstr", [ Str (name ^ "\n") ]));
            Return (v "sum" &: i 0xFF);
          ];
      ]
  in
  let config =
    { Os.default_config with
      cores = 1;
      domains = { Occlum_libos.Domain_mgr.default_config with max_domains = 1 } }
  in
  let os = Os.boot ~config () in
  Os.install_binary os "/bin/a" (sign (counter "a" 100));
  Os.install_binary os "/bin/b" (sign (counter "b-other" 50));
  let jit () =
    match Os.jit_stats os with
    | Some (compiles, _, invalidations) -> (compiles, invalidations)
    | None -> Alcotest.fail "jit stats missing"
  in
  let slot = ref None in
  let run path ~code ~out =
    let compiles0, invalidations0 = jit () in
    let console0 = String.length (Os.console_output os) in
    let pid = Os.spawn os ~parent_pid:0 ~path ~args:[] in
    ignore (Os.wait_pid_exit ~max_steps:2_000_000 os pid);
    (match Os.find_proc os pid with
    | Some p ->
        Alcotest.(check int) (path ^ " exit code") code p.Os.exit_code;
        let id = p.Os.img.Occlum_libos.Loader.slot.id in
        if !slot = None then slot := Some id;
        Alcotest.(check (option int)) (path ^ " slot") !slot (Some id)
    | None -> Alcotest.fail (path ^ " vanished"));
    let console = Os.console_output os in
    Alcotest.(check string) (path ^ " output") out
      (String.sub console console0 (String.length console - console0));
    let compiles, invalidations = jit () in
    (compiles - compiles0, invalidations - invalidations0)
  in
  let a_code = 4950 land 0xFF and b_code = 1225 land 0xFF in
  let compiles, _ = run "/bin/a" ~code:a_code ~out:"a\n" in
  Alcotest.(check bool) "first run compiles" true (compiles > 0);
  Alcotest.(check (pair int int)) "respawn: nothing compiled or dropped" (0, 0)
    (run "/bin/a" ~code:a_code ~out:"a\n");
  let compiles, invalidations = run "/bin/b" ~code:b_code ~out:"b-other\n" in
  Alcotest.(check bool) "other binary drops stale blocks" true (invalidations > 0);
  Alcotest.(check bool) "other binary compiles" true (compiles > 0);
  let compiles, invalidations = run "/bin/a" ~code:a_code ~out:"a\n" in
  Alcotest.(check bool) "first binary again drops stale blocks" true
    (invalidations > 0);
  Alcotest.(check bool) "first binary again recompiles" true (compiles > 0)

let test_loader_rejects_unsigned () =
  let os = Os.boot () in
  let prog = rt [ func "main" [] [ Return (i 0) ] ] in
  let unsigned =
    Occlum_toolchain.Compile.compile_exn ~config:Occlum_toolchain.Codegen.sfi prog
  in
  Os.install_binary os "/bin/unsigned" unsigned;
  match Os.spawn os ~parent_pid:0 ~path:"/bin/unsigned" ~args:[] with
  | exception Os.Spawn_error e when e = Errno.eaccess -> ()
  | _ -> Alcotest.fail "unsigned binary must not load"

(* The checked-image memo reuses an admission only for a byte-identical
   binary. A one-byte in-place rewrite of a spawned binary fails the
   next spawn with EACCES whether it is still in the page cache or has
   been flushed to the host; the original bytes written back spawn
   again. A second LibOS booted over the same host image starts with
   its own, empty memo. *)
let test_image_memo () =
  let signed =
    match
      Occlum_verifier.Verify.verify_and_sign
        (Occlum_toolchain.Compile.compile_exn
           ~config:Occlum_toolchain.Codegen.sfi
           (rt [ func "main" [] [ Return (i 7) ] ]))
    with
    | Ok s -> s
    | Error _ -> failwith "verify"
  in
  let binary = Occlum_oelf.Oelf.to_string signed in
  let host = Occlum_libos.Sefs.Host_store.create () in
  let obs = Occlum_obs.Obs.create ~events:[] () in
  let os = Os.boot ~obs ~host_fs:host () in
  Os.install_binary os "/bin/app" signed;
  let count name =
    Option.value ~default:0.
      (List.assoc_opt name
         (Occlum_obs.Metrics.to_json_items obs.Occlum_obs.Obs.metrics))
  in
  let spawn_ok os what =
    let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
    ignore (Os.wait_pid_exit ~max_steps:200_000 os pid);
    match Os.find_proc os pid with
    | Some p -> Alcotest.(check int) (what ^ ": exit code") 7 p.Os.exit_code
    | None -> Alcotest.fail (what ^ ": child vanished")
  in
  let spawn_denied what =
    match Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] with
    | exception Os.Spawn_error e -> Alcotest.(check int) what Errno.eaccess e
    | _ -> Alcotest.fail (what ^ ": a rewritten binary was loaded")
  in
  (* a byte inside the code image: the file still parses, so only the
     signature can refuse it *)
  let pos = String.length Occlum_oelf.Oelf.magic + 20 + 100 in
  let write_byte c =
    match Occlum_libos.Sefs.lookup os.Os.sefs "/bin/app" with
    | None -> Alcotest.fail "binary missing"
    | Some ino -> (
        match
          Occlum_libos.Sefs.write_file os.Os.sefs ino ~pos (Bytes.make 1 c)
        with
        | Ok 1 -> ()
        | _ -> Alcotest.fail "in-place write failed")
  in
  let flipped = Char.chr (Char.code binary.[pos] lxor 0x01) in
  spawn_ok os "first spawn";
  spawn_ok os "memoized spawn";
  write_byte flipped;
  spawn_denied "unflushed one-byte rewrite";
  Os.flush_fs os;
  spawn_denied "flushed one-byte rewrite";
  write_byte binary.[pos];
  spawn_ok os "original bytes restored";
  write_byte flipped;
  Os.flush_fs os;
  spawn_denied "rewritten again after a hit";
  write_byte binary.[pos];
  Os.flush_fs os;
  spawn_ok os "restored and flushed";
  Alcotest.(check (pair (float 0.) (float 0.)))
    "memo hits and misses: only the unchanged respawns hit" (1., 6.)
    (count "os.image_cache_hits", count "os.image_cache_misses");
  Alcotest.(check bool) "this LibOS memoized the binary" true
    (Hashtbl.mem os.Os.images "/bin/app");
  let os2 = Os.boot ~host_fs:host () in
  Alcotest.(check int) "a second LibOS starts with an empty memo" 0
    (Hashtbl.length os2.Os.images);
  spawn_ok os2 "second LibOS spawns from the shared image";
  Alcotest.(check bool) "the memos are separate tables" true
    (os.Os.images != os2.Os.images)

let test_eip_mode_runs () =
  let _, status, code =
    run_system ~mode:Os.Eip
      (rt
         [
           func "main" []
             [ Expr (Call ("print_cstr", [ Str "eip\n" ])); Return (i 3) ];
         ])
  in
  Alcotest.(check bool) "exited" true (status = Os.All_exited);
  Alcotest.(check int) "code" 3 code

let test_linux_mode_runs () =
  let os, status, code =
    run_system ~mode:Os.Linux
      (rt
         [
           func "main" []
             [ Expr (Call ("print_cstr", [ Str "native\n" ])); Return (i 4) ];
         ])
  in
  Alcotest.(check bool) "exited" true (status = Os.All_exited);
  Alcotest.(check int) "code" 4 code;
  Alcotest.(check string) "output" "native\n" (Os.console_output os)

let test_sgx2_mode () =
  (* EDMM: EPC is consumed per live SIP and released at exit, and the
     SIP's reach ends at its own last mapped page *)
  let config = { Os.default_config with sgx2 = true } in
  let os = Os.boot ~config () in
  let build prog =
    match
      Occlum_verifier.Verify.verify_and_sign
        (Occlum_toolchain.Compile.compile_exn
           ~config:Occlum_toolchain.Codegen.sfi prog)
    with
    | Ok s -> s
    | Error _ -> failwith "verify"
  in
  let hello =
    rt [ func "main" [] [ Expr (Call ("print_cstr", [ Str "sgx2\n" ])); Return (i 6) ] ]
  in
  Os.install_binary os "/bin/app" (build hello);
  let before = Occlum_sgx.Epc.used_pages os.Os.epc in
  let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
  let during = Occlum_sgx.Epc.used_pages os.Os.epc in
  Alcotest.(check bool) "EPC grows on spawn" true (during > before);
  ignore (Os.wait_pid_exit ~max_steps:500_000 os pid);
  Alcotest.(check int) "EPC released on exit" before
    (Occlum_sgx.Epc.used_pages os.Os.epc);
  (match Os.find_proc os pid with
  | Some p ->
      Alcotest.(check int) "exit code" 6 p.exit_code;
      Alcotest.(check string) "output" "sgx2\n" (Os.console_output os)
  | None -> Alcotest.fail "process lost");
  (* a second spawn reuses the slot with fresh zeroed pages *)
  let pid2 = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
  ignore (Os.wait_pid_exit ~max_steps:500_000 os pid2);
  match Os.find_proc os pid2 with
  | Some p -> Alcotest.(check int) "re-spawn exit code" 6 p.exit_code
  | None -> Alcotest.fail "second process lost"

let test_poll () =
  let module P = Occlum_abi.Abi.Poll in
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("fds", Global_addr "_rt_misc_buf");
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                Let ("r", Load (v "fds"));
                Let ("w", Load (v "fds" +: i 8));
                Let ("pe", Call ("malloc", [ i 48 ]));
                (* empty pipe: reader not ready, writer ready *)
                Store (v "pe", v "r");
                Store (v "pe" +: i 8, i P.pollin);
                Store (v "pe" +: i 24, v "w");
                Store (v "pe" +: i 32, i P.pollout);
                Let ("n", Syscall (Sys.poll, [ v "pe"; i 2; i 0 ]));
                If (v "n" <>: i 1, [ Return (i 1) ], []);
                If (Load (v "pe" +: i 16) <>: i 0, [ Return (i 2) ], []);
                If (Load (v "pe" +: i 40) <>: i P.pollout, [ Return (i 3) ], []);
                (* write a byte: the reader becomes ready *)
                Expr (Call ("write", [ v "w"; v "pe"; i 1 ]));
                Store (v "pe" +: i 16, i 0);
                Let ("m", Syscall (Sys.poll, [ v "pe"; i 1; i 0 ]));
                If (v "m" <>: i 1, [ Return (i 4) ], []);
                If (Load (v "pe" +: i 16) <>: i P.pollin, [ Return (i 5) ], []);
                (* a poll with a timeout on a never-ready fd returns 0 *)
                Let ("buf", Call ("malloc", [ i 8 ]));
                Expr (Call ("read", [ v "r"; v "buf"; i 8 ]));
                Store (v "pe" +: i 16, i 0);
                Let ("z", Syscall (Sys.poll, [ v "pe"; i 1; i 1000 ]));
                If (v "z" <>: i 0, [ Return (i 6) ], []);
                (* bad fd reports POLLNVAL *)
                Store (v "pe", i 42);
                Store (v "pe" +: i 16, i 0);
                Expr (Syscall (Sys.poll, [ v "pe"; i 1; i 0 ]));
                If (Load (v "pe" +: i 16) <>: i P.pollnval, [ Return (i 7) ], []);
                Return (i 0);
              ];
          ]))

let test_nonblock_eagain () =
  (* O_NONBLOCK: would-block paths return EAGAIN instead of suspending *)
  let module Fc = Occlum_abi.Abi.Fcntl in
  let nb = F.nonblock in
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("fds", Global_addr "_rt_misc_buf");
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                Let ("r", Load (v "fds"));
                (* empty blocking-capable pipe, flagged nonblocking *)
                If (Syscall (Sys.fcntl, [ v "r"; i Fc.setfl; i nb ]) <>: i 0,
                    [ Return (i 1) ], []);
                If (Syscall (Sys.fcntl, [ v "r"; i Fc.getfl; i 0 ]) <>: i nb,
                    [ Return (i 2) ], []);
                Let ("buf", Call ("malloc", [ i 16 ]));
                If (Syscall (Sys.read, [ v "r"; v "buf"; i 8 ])
                    <>: i Errno.eagain,
                    [ Return (i 3) ], []);
                (* nonblocking accept on an empty backlog *)
                Let ("ls", Syscall (Sys.socket, []));
                Expr (Syscall (Sys.bind, [ v "ls"; i 9100 ]));
                Expr (Syscall (Sys.listen, [ v "ls"; i 4 ]));
                If (Syscall (Sys.fcntl, [ v "ls"; i Fc.setfl; i nb ]) <>: i 0,
                    [ Return (i 4) ], []);
                If (Syscall (Sys.accept, [ v "ls" ]) <>: i Errno.eagain,
                    [ Return (i 5) ], []);
                (* clearing the flag restores blocking semantics (getfl) *)
                If (Syscall (Sys.fcntl, [ v "r"; i Fc.setfl; i 0 ]) <>: i 0,
                    [ Return (i 6) ], []);
                If (Syscall (Sys.fcntl, [ v "r"; i Fc.getfl; i 0 ]) <>: i 0,
                    [ Return (i 7) ], []);
                If (Syscall (Sys.fcntl, [ i 42; i Fc.getfl; i 0 ])
                    <>: i Errno.ebadf,
                    [ Return (i 8) ], []);
                Return (i 0);
              ];
          ]))

let test_epoll () =
  let module P = Occlum_abi.Abi.Poll in
  let module E = Occlum_abi.Abi.Epoll in
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("fds", Global_addr "_rt_misc_buf");
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                Let ("r", Load (v "fds"));
                Let ("w", Load (v "fds" +: i 8));
                Let ("ep", Syscall (Sys.epoll_create, []));
                If (v "ep" <: i 0, [ Return (i 1) ], []);
                Let ("evb", Call ("malloc", [ i 64 ]));
                (* ctl semantics: add, duplicate add, mod/del of absent *)
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_add; v "r"; i P.pollin ])
                    <>: i 0, [ Return (i 2) ], []);
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_add; v "r"; i P.pollin ])
                    <>: i Errno.eexist, [ Return (i 3) ], []);
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_mod; v "w"; i P.pollout ])
                    <>: i Errno.enoent, [ Return (i 4) ], []);
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_del; v "w"; i 0 ])
                    <>: i Errno.enoent, [ Return (i 5) ], []);
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_add; v "ep"; i P.pollin ])
                    <>: i Errno.einval, [ Return (i 6) ], []);
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_add; i 42; i P.pollin ])
                    <>: i Errno.ebadf, [ Return (i 7) ], []);
                (* empty pipe: no events (timeout 0) *)
                If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 4; i 0 ])
                    <>: i 0, [ Return (i 8) ], []);
                (* maxevents must be positive, as on Linux *)
                If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 0; i 0 ])
                    <>: i Errno.einval, [ Return (i 18) ], []);
                If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i (-1); i 0 ])
                    <>: i Errno.einval, [ Return (i 19) ], []);
                (* data arrives: one event, right fd, POLLIN *)
                Expr (Call ("write", [ v "w"; v "evb"; i 1 ]));
                If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 4; i 0 ])
                    <>: i 1, [ Return (i 9) ], []);
                If (Load (v "evb") <>: v "r", [ Return (i 10) ], []);
                If (Load (v "evb" +: i 8) <>: i P.pollin, [ Return (i 11) ], []);
                (* level-triggered: unconsumed data reports again *)
                If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 4; i 0 ])
                    <>: i 1, [ Return (i 12) ], []);
                (* consuming the data re-arms to not-ready *)
                Let ("buf", Call ("malloc", [ i 8 ]));
                Expr (Call ("read", [ v "r"; v "buf"; i 8 ]));
                If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 4; i 0 ])
                    <>: i 0, [ Return (i 13) ], []);
                (* a wait with a deadline on a never-ready set expires *)
                Let ("t0", Call ("gettime", []));
                If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 4; i 100000 ])
                    <>: i 0, [ Return (i 14) ], []);
                If (Call ("gettime", []) -: v "t0" <: i 100000,
                    [ Return (i 15) ], []);
                (* del detaches: new data no longer reported *)
                If (Syscall (Sys.epoll_ctl, [ v "ep"; i E.ctl_del; v "r"; i 0 ])
                    <>: i 0, [ Return (i 16) ], []);
                Expr (Call ("write", [ v "w"; v "evb"; i 1 ]));
                If (Syscall (Sys.epoll_wait, [ v "ep"; v "evb"; i 4; i 0 ])
                    <>: i 0, [ Return (i 17) ], []);
                Return (i 0);
              ];
          ]))

let test_poll_unconnected_socket () =
  (* regression: an unconnected socket must report POLLOUT (connectable)
     so a poll-then-connect loop makes progress, and a peer-closed
     socket must report POLLHUP even when only POLLIN was requested *)
  let module P = Occlum_abi.Abi.Poll in
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("s", Syscall (Sys.socket, []));
                Let ("pe", Call ("malloc", [ i 24 ]));
                Store (v "pe", v "s");
                Store (v "pe" +: i 8, i (P.pollin lor P.pollout));
                Store (v "pe" +: i 16, i 0);
                If (Syscall (Sys.poll, [ v "pe"; i 1; i 0 ]) <>: i 1,
                    [ Return (i 1) ], []);
                If (Load (v "pe" +: i 16) <>: i P.pollout, [ Return (i 2) ], []);
                (* poll said connectable: connect must then succeed *)
                Let ("ls", Syscall (Sys.socket, []));
                Expr (Syscall (Sys.bind, [ v "ls"; i 9200 ]));
                Expr (Syscall (Sys.listen, [ v "ls"; i 4 ]));
                If (Syscall (Sys.connect, [ v "s"; i 9200 ]) <>: i 0,
                    [ Return (i 3) ], []);
                Let ("srv", Syscall (Sys.accept, [ v "ls" ]));
                If (v "srv" <: i 0, [ Return (i 4) ], []);
                (* peer closes: POLLHUP reported on a POLLIN-only poll *)
                Expr (Call ("close", [ v "srv" ]));
                Store (v "pe" +: i 8, i P.pollin);
                Store (v "pe" +: i 16, i 0);
                If (Syscall (Sys.poll, [ v "pe"; i 1; i 0 ]) <>: i 1,
                    [ Return (i 5) ], []);
                If (Load (v "pe" +: i 16) <>: i (P.pollin lor P.pollhup),
                    [ Return (i 6) ], []);
                Return (i 0);
              ];
          ]))

let test_listener_close_releases_port () =
  (* regression: the last close of a Listener fd must free the port (so
     re-listen succeeds) and EOF every queued, never-accepted client *)
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("ls", Syscall (Sys.socket, []));
                Expr (Syscall (Sys.bind, [ v "ls"; i 9300 ]));
                If (Syscall (Sys.listen, [ v "ls"; i 4 ]) <>: i 0,
                    [ Return (i 1) ], []);
                (* a client connects and is left queued, never accepted *)
                Let ("cl", Syscall (Sys.socket, []));
                If (Syscall (Sys.connect, [ v "cl"; i 9300 ]) <>: i 0,
                    [ Return (i 2) ], []);
                (* port is busy while the listener lives *)
                Let ("ls2", Syscall (Sys.socket, []));
                Expr (Syscall (Sys.bind, [ v "ls2"; i 9300 ]));
                If (Syscall (Sys.listen, [ v "ls2"; i 4 ]) <>: i Errno.eexist,
                    [ Return (i 3) ], []);
                (* close releases the port and closes the queued side *)
                Expr (Call ("close", [ v "ls" ]));
                Let ("ls3", Syscall (Sys.socket, []));
                Expr (Syscall (Sys.bind, [ v "ls3"; i 9300 ]));
                If (Syscall (Sys.listen, [ v "ls3"; i 4 ]) <>: i 0,
                    [ Return (i 4) ], []);
                (* the queued client observes EOF, not a hang *)
                Let ("buf", Call ("malloc", [ i 8 ]));
                If (Syscall (Sys.recv, [ v "cl"; v "buf"; i 8 ]) <>: i 0,
                    [ Return (i 5) ], []);
                Return (i 0);
              ];
          ]))

let test_batch_syscall () =
  (* Sys.batch: one gate crossing submits N calls; results land in each
     entry; scheduling-class calls are rejected per-entry *)
  let module B = Occlum_abi.Abi.Batch in
  ignore
    (check_run ~exit_code:0 ~output:"hi!"
       (rt
          [
            func "main" []
              [
                Let ("bb", Call ("malloc", [ i (7 * B.entry_size) ]));
                (* entry 0: write(1, "hi", 2) *)
                Store (v "bb", i Sys.write);
                Store (v "bb" +: i 16, i 1);
                Store (v "bb" +: i 24, Str "hi");
                Store (v "bb" +: i 32, i 2);
                (* entry 1: getpid *)
                Store (v "bb" +: i B.entry_size, i Sys.getpid);
                (* entry 2: a blocked call is converted to EAGAIN *)
                Let ("fds", Global_addr "_rt_misc_buf");
                Expr (Syscall (Sys.pipe, [ v "fds" ]));
                Store (v "bb" +: i (2 * B.entry_size), i Sys.read);
                Store (v "bb" +: i (2 * B.entry_size) +: i 16, Load (v "fds"));
                Store (v "bb" +: i (2 * B.entry_size) +: i 24,
                       v "bb" +: i (3 * B.entry_size));
                Store (v "bb" +: i (2 * B.entry_size) +: i 32, i 8);
                (* entries 3-6: spawn, exit, clone and a nested batch are
                   not batchable *)
                Store (v "bb" +: i (3 * B.entry_size), i Sys.spawn);
                Store (v "bb" +: i (4 * B.entry_size), i Sys.exit);
                (* a clone entry that would start a thread if it ran *)
                Store (v "bb" +: i (5 * B.entry_size), i Sys.clone);
                Store (v "bb" +: i (5 * B.entry_size) +: i 16,
                       Func_addr "idle");
                Store (v "bb" +: i (5 * B.entry_size) +: i 24,
                       Call ("malloc", [ i 4096 ]) +: i 4096);
                Store (v "bb" +: i (6 * B.entry_size), i Sys.batch);
                If (Syscall (Sys.batch, [ v "bb"; i 7 ]) <>: i 7,
                    [ Return (i 1) ], []);
                If (Load (v "bb" +: i 8) <>: i 2, [ Return (i 2) ], []);
                If (Load (v "bb" +: i B.entry_size +: i 8) <>:
                    Syscall (Sys.getpid, []),
                    [ Return (i 3) ], []);
                If (Load (v "bb" +: i (2 * B.entry_size) +: i 8)
                    <>: i Errno.eagain,
                    [ Return (i 4) ], []);
                If (Load (v "bb" +: i (3 * B.entry_size) +: i 8)
                    <>: i Errno.einval,
                    [ Return (i 5) ], []);
                If (Load (v "bb" +: i (4 * B.entry_size) +: i 8)
                    <>: i Errno.einval,
                    [ Return (i 8) ], []);
                If (Load (v "bb" +: i (5 * B.entry_size) +: i 8)
                    <>: i Errno.einval,
                    [ Return (i 9) ], []);
                If (Load (v "bb" +: i (6 * B.entry_size) +: i 8)
                    <>: i Errno.einval,
                    [ Return (i 10) ], []);
                (* the exit entry ran nothing: stdout is still open *)
                If (Syscall (Sys.write, [ i 1; Str "!"; i 1 ]) <>: i 1,
                    [ Return (i 11) ], []);
                (* malformed batches are rejected whole *)
                If (Syscall (Sys.batch, [ v "bb"; i (-1) ]) <>: i Errno.efault,
                    [ Return (i 6) ], []);
                If (Syscall (Sys.batch, [ v "bb"; i (B.max_entries + 1) ])
                    <>: i Errno.efault,
                    [ Return (i 7) ], []);
                Return (i 0);
              ];
            func "idle" [ "x" ] [ Return (v "x") ];
          ]))

let test_hostile_syscall_numbers () =
  (* a number the LibOS does not implement is ENOSYS, from the gate and
     in its own batch slot alike, and nothing raises out of Os.run *)
  let module B = Occlum_abi.Abi.Batch in
  let nrs = [ -1; 150; 405; max_int ] in
  let n = List.length nrs in
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              (List.mapi
                 (fun k nr ->
                   If (Syscall (nr, []) <>: i Errno.enosys,
                       [ Return (i (1 + k)) ], []))
                 nrs
              @ [ Let ("bb", Call ("malloc", [ i (n * B.entry_size) ])) ]
              @ List.mapi
                  (fun k nr -> Store (v "bb" +: i (k * B.entry_size), i nr))
                  nrs
              @ [ If (Syscall (Sys.batch, [ v "bb"; i n ]) <>: i n,
                      [ Return (i 10) ], []) ]
              @ List.mapi
                  (fun k _ ->
                    If (Load (v "bb" +: i (k * B.entry_size) +: i 8)
                        <>: i Errno.enosys,
                        [ Return (i (11 + k)) ], []))
                  nrs
              @ [ Return (i 0) ]);
          ]))

(* A syscall number is all 64 bits of its register or batch entry: with
   bit 63 set it is ENOSYS, never the call its low 63 bits name. Here
   those bits name write(1, "x", 1), so a folded number would print. *)
let nr_bit63 = Int64.logor Int64.min_int (Int64.of_int Sys.write)

(* Run [main], after rewriting each syscall-number load of [marker] to
   [nr_bit63]: a gate-path number that cannot be an Occlang literal. *)
let run_with_bit63_gate ~marker main =
  let module Asm = Occlum_toolchain.Asm in
  let layout, items, _ = Occlum_toolchain.Compile.to_items (rt [ main ]) in
  let nr_reg = Occlum_isa.Reg.of_int Occlum_abi.Abi.Regs.sys_nr in
  let items =
    List.map
      (function
        | Asm.Ins (Mov_imm (r, n)) when r = nr_reg && n = Int64.of_int marker ->
            Asm.Ins (Mov_imm (r, nr_bit63))
        | item -> item)
      items
  in
  let os = Os.boot () in
  (match
     Occlum_verifier.Verify.verify_and_sign
       (Occlum_toolchain.Linker.link layout items)
   with
  | Ok signed -> Os.install_binary os "/bin/app" signed
  | Error _ -> Alcotest.fail "verify");
  let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
  (match Os.run ~max_steps:2_000_000 os with
  | Os.All_exited -> ()
  | _ -> Alcotest.fail "did not exit");
  Alcotest.(check int) "exit code" 0
    (match Os.find_proc os pid with Some p -> p.exit_code | None -> -1);
  Alcotest.(check string) "nothing written" "" (Os.console_output os)

let test_syscall_bit63_gate () =
  let marker = 0x7e57 in
  run_with_bit63_gate ~marker
    (func "main" []
       [
         If (Syscall (marker, [ i 1; Str "x"; i 1 ]) <>: i Errno.enosys,
             [ Return (i 1) ], []);
         Return (i 0);
       ])

let test_syscall_bit63_batch () =
  let module B = Occlum_abi.Abi.Batch in
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("bb", Call ("malloc", [ i B.entry_size ]));
                Store (v "bb", Int nr_bit63);
                Store (v "bb" +: i 16, i 1);
                Store (v "bb" +: i 24, Str "x");
                Store (v "bb" +: i 32, i 1);
                If (Syscall (Sys.batch, [ v "bb"; i 1 ]) <>: i 1,
                    [ Return (i 1) ], []);
                If (Load (v "bb" +: i 8) <>: i Errno.enosys,
                    [ Return (i 2) ], []);
                Return (i 0);
              ];
          ]))

let test_facade () =
  (* the Occlum_system facade: build -> boot -> install -> exec *)
  let prog =
    rt [ func "main" [] [ Expr (Call ("print_cstr", [ Str "facade\n" ])); Return (i 9) ] ]
  in
  (match Sysm.run_program prog with
  | Ok r ->
      Alcotest.(check int) "exit" 9 r.Sysm.exit_code;
      Alcotest.(check string) "stdout" "facade\n" r.Sysm.stdout
  | Error e -> Alcotest.fail (Sysm.error_to_string e));
  (* a bare program fails verification through the facade *)
  match Sysm.build ~config:Occlum_toolchain.Codegen.bare prog with
  | Error (Sysm.Rejected _) -> ()
  | _ -> Alcotest.fail "facade must reject bare binaries"

let test_bad_user_pointer () =
  (* syscalls validate user pointers: out-of-domain buffer -> EFAULT *)
  ignore
    (check_run ~exit_code:(-Errno.efault) ~output:""
       (rt
          [
            func "main" []
              [
                Return
                  (Unop (Neg, Syscall (Sys.write, [ i 1; i 16; i 8 ])));
              ];
          ]))

(* A SIP whose syscall names a buffer ending past its data domain must
   get an error, and the LibOS must write nothing past the domain. The
   program sees its domain's top as [Data_addr data_size]. Returns the
   exit code and whether the 16 bytes past the domain kept their
   content. *)
let data_size = Occlum_libos.Domain_mgr.default_config.domain_data_size

let run_past_domain prog =
  let os = Os.boot () in
  Os.install_binary os "/bin/app" (sign prog);
  let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
  let p =
    match Os.find_proc os pid with
    | Some p -> p
    | None -> Alcotest.fail "spawn failed"
  in
  let img = p.Os.img in
  let top = Int64.to_int img.Occlum_libos.Loader.bnd0.upper + 1 in
  Alcotest.(check int) "the domain ends at Data_addr data_size"
    (Occlum_libos.Domain_mgr.d_base img.Occlum_libos.Loader.slot + data_size)
    top;
  let past () =
    Occlum_machine.Mem.read_bytes_priv os.Os.mem ~addr:top ~len:16
  in
  let before = past () in
  ignore (Os.wait_pid_exit ~max_steps:2_000_000 os pid);
  (p.Os.exit_code, Bytes.equal before (past ()))

let test_read_len_overflow () =
  (* read(pipe, top - 10, max_int): [addr + len - 1] wraps negative, so
     a bounds check in that form passes and the pipe's 26 bytes land
     16 bytes past the domain *)
  let code, intact =
    run_past_domain
      (rt
         [
           func "main" []
             [
               Let ("fds", Global_addr "_rt_misc_buf");
               Expr (Syscall (Sys.pipe, [ v "fds" ]));
               Expr
                 (Syscall
                    ( Sys.write,
                      [ Load (v "fds" +: i 8); Str "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
                        i 26 ] ));
               Return
                 (Unop
                    ( Neg,
                      Syscall
                        ( Sys.read,
                          [ Load (v "fds"); Data_addr (data_size - 10);
                            i max_int ] ) ));
             ];
         ])
  in
  Alcotest.(check int) "read gets EFAULT" (-Errno.efault) code;
  Alcotest.(check bool) "nothing written past the domain" true intact

let test_epoll_maxevents_wrap () =
  (* (2^59 + 1) * event_size wraps to 16, which would let two ready
     events through a buffer 16 bytes below the domain's top *)
  let module P = Occlum_abi.Abi.Poll in
  let module E = Occlum_abi.Abi.Epoll in
  let code, intact =
    run_past_domain
      (rt
         [
           func "main" []
             [
               Let ("a", Call ("malloc", [ i 32 ]));
               Expr (Syscall (Sys.pipe, [ v "a" ]));
               Expr (Syscall (Sys.pipe, [ v "a" +: i 16 ]));
               Let ("ep", Syscall (Sys.epoll_create, []));
               Expr
                 (Syscall
                    (Sys.epoll_ctl, [ v "ep"; i E.ctl_add; Load (v "a"); i P.pollin ]));
               Expr
                 (Syscall
                    ( Sys.epoll_ctl,
                      [ v "ep"; i E.ctl_add; Load (v "a" +: i 16); i P.pollin ] ));
               Expr (Syscall (Sys.write, [ Load (v "a" +: i 8); v "a"; i 1 ]));
               Expr (Syscall (Sys.write, [ Load (v "a" +: i 24); v "a"; i 1 ]));
               Return
                 (Unop
                    ( Neg,
                      Syscall
                        ( Sys.epoll_wait,
                          [ v "ep"; Data_addr (data_size - 16);
                            i ((1 lsl 59) + 1); i 0 ] ) ));
             ];
         ])
  in
  Alcotest.(check int) "epoll_wait gets EINVAL" (-Errno.einval) code;
  Alcotest.(check bool) "nothing written past the domain" true intact

let test_mmap_negative_offset () =
  (* a negative file offset must not reach SEFS, where it raised out of
     Os.run and stopped every SIP *)
  let os =
    check_run ~exit_code:0 ~output:""
      (rt
         [
           func "main" []
             [
               Let ("w", Call ("open", [ Str "/f"; i 2; i (F.creat lor F.wronly) ]));
               Expr (Call ("write", [ v "w"; Str "hello world"; i 11 ]));
               Expr (Call ("close", [ v "w" ]));
               Let ("fd", Call ("open", [ Str "/f"; i 2; i F.rdonly ]));
               If
                 ( Syscall (Sys.mmap, [ i 0; i 8192; v "fd"; i (-1) ])
                   <>: i Errno.einval,
                   [ Return (i 1) ],
                   [] );
               If
                 ( Syscall (Sys.mmap, [ i 0; i 8192; v "fd"; i 0 ]) <: i 0,
                   [ Return (i 2) ],
                   [] );
               Return (i 0);
             ];
         ])
  in
  match Occlum_libos.Sefs.lookup os.Os.sefs "/f" with
  | None -> Alcotest.fail "/f missing"
  | Some ino ->
      Alcotest.(check bool) "Sefs.read_file rejects a negative pos" true
        (Occlum_libos.Sefs.read_file os.Os.sefs ino ~pos:(-1) ~len:8
        = Error Errno.einval)

let test_mmap_write_only_fd () =
  (* a file mapping copies the file into the SIP, so an fd not open for
     reading is EACCES, as on Linux, and the refusal maps nothing *)
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("w", Call ("open", [ Str "/f"; i 2; i (F.creat lor F.wronly) ]));
                Expr (Call ("write", [ v "w"; Str "secret"; i 6 ]));
                Let ("a", Syscall (Sys.mmap, [ i 0; i 8192; i (-1); i 0 ]));
                If (v "a" <: i 0, [ Return (i 1) ], []);
                If
                  ( Syscall (Sys.mmap, [ i 0; i 8192; v "w"; i 0 ])
                    <>: i Errno.eaccess,
                    [ Return (i 2) ],
                    [] );
                (* the next anonymous mapping lands where it would have *)
                If
                  ( Syscall (Sys.mmap, [ i 0; i 8192; i (-1); i 0 ])
                    <>: v "a" -: i 8192,
                    [ Return (i 3) ],
                    [] );
                (* an O_RDWR fd on the same file still maps its bytes *)
                Let ("r", Call ("open", [ Str "/f"; i 2; i F.rdwr ]));
                Let ("m", Syscall (Sys.mmap, [ i 0; i 16; v "r"; i 0 ]));
                If (v "m" <: i 0, [ Return (i 4) ], []);
                If (Load (v "m") =: i 0, [ Return (i 5) ], []);
                Return (i 0);
              ];
          ]))

let test_lseek_whence () =
  (* an unknown whence is EINVAL, not SEEK_END *)
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("fd", Call ("open", [ Str "/f"; i 2; i (F.creat lor F.rdwr) ]));
                Expr (Call ("write", [ v "fd"; Str "hello"; i 5 ]));
                If
                  ( Syscall (Sys.lseek, [ v "fd"; i 0; i 3 ]) <>: i Errno.einval,
                    [ Return (i 1) ],
                    [] );
                If
                  ( Syscall (Sys.lseek, [ v "fd"; i (-1); i 2 ]) <>: i 4,
                    [ Return (i 2) ],
                    [] );
                If
                  ( Syscall (Sys.lseek, [ v "fd"; i 1; i 1 ]) <>: i 5,
                    [ Return (i 3) ],
                    [] );
                Return (i 0);
              ];
          ]))

let sefs_file os path =
  match Occlum_libos.Sefs.read_path os.Os.sefs path with
  | Ok s -> s
  | Error e -> Alcotest.fail (Printf.sprintf "read %s: errno %d" path e)

let test_resize_zeroes_stale_bytes () =
  (* regression: a file that shrank keeps its blocks, so growing it
     again (ftruncate, or a write past the end) must show zeros where
     the old bytes were *)
  let os =
    check_run ~exit_code:0 ~output:""
      (rt
         [
           func "main" []
             [
               Let ("fd", Call ("open", [ Str "/s"; i 2; i (F.creat lor F.rdwr) ]));
               Expr (Call ("write", [ v "fd"; Str "SECRET"; i 6 ]));
               If (Syscall (Sys.ftruncate, [ v "fd"; i 0 ]) <>: i 0,
                   [ Return (i 1) ], []);
               If (Syscall (Sys.ftruncate, [ v "fd"; i 6 ]) <>: i 0,
                   [ Return (i 2) ], []);
               If (Syscall (Sys.ftruncate, [ v "fd"; i (-1) ]) <>: i Errno.einval,
                   [ Return (i 3) ], []);
               Expr (Call ("close", [ v "fd" ]));
               Let ("ft", Call ("open", [ Str "/t"; i 2; i (F.creat lor F.wronly) ]));
               Expr (Call ("write", [ v "ft"; Str "SECRETS!"; i 8 ]));
               Expr (Call ("close", [ v "ft" ]));
               Let ("fu", Call ("open", [ Str "/t"; i 2; i (F.wronly lor F.trunc) ]));
               Expr (Call ("write", [ v "fu"; Str "ab"; i 2 ]));
               Expr (Syscall (Sys.lseek, [ v "fu"; i 6; i 0 ]));
               Expr (Call ("write", [ v "fu"; Str "z"; i 1 ]));
               Expr (Call ("close", [ v "fu" ]));
               Return (i 0);
             ];
         ])
  in
  Alcotest.(check string) "ftruncate 0 then 6" (String.make 6 '\000')
    (sefs_file os "/s");
  Alcotest.(check string) "O_TRUNC, then a write past the end" "ab\000\000\000\000z"
    (sefs_file os "/t")

let test_readonly_fd_keeps_file () =
  (* regression: ftruncate on an fd not open for writing is EINVAL and
     write on one is EBADF, as on Linux; neither touches the file *)
  let os =
    check_run ~exit_code:0 ~output:""
      (rt
         [
           func "main" []
             [
               Let ("w", Call ("open", [ Str "/ro"; i 3; i (F.creat lor F.wronly) ]));
               Expr (Call ("write", [ v "w"; Str "intact"; i 6 ]));
               Expr (Call ("close", [ v "w" ]));
               Let ("fd", Call ("open", [ Str "/ro"; i 3; i F.rdonly ]));
               If (Syscall (Sys.ftruncate, [ v "fd"; i 0 ]) <>: i Errno.einval,
                   [ Return (i 1) ], []);
               If (Call ("write", [ v "fd"; Str "XX"; i 2 ]) <>: i Errno.ebadf,
                   [ Return (i 2) ], []);
               Expr (Call ("close", [ v "fd" ]));
               Return (i 0);
             ];
         ])
  in
  Alcotest.(check string) "the bytes are still there" "intact"
    (sefs_file os "/ro")

let test_writeonly_fd_denies_read () =
  (* regression: read on an fd opened O_WRONLY is EBADF, as on Linux,
     even with the position back at bytes the file holds; O_RDWR and
     O_RDONLY fds read them *)
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("buf", Call ("malloc", [ i 8 ]));
                Let ("w", Call ("open", [ Str "/wo"; i 3; i (F.creat lor F.wronly) ]));
                Expr (Call ("write", [ v "w"; Str "secret"; i 6 ]));
                If (Syscall (Sys.lseek, [ v "w"; i 0; i 0 ]) <>: i 0,
                    [ Return (i 1) ], []);
                If (Call ("read", [ v "w"; v "buf"; i 6 ]) <>: i Errno.ebadf,
                    [ Return (i 2) ], []);
                Expr (Call ("close", [ v "w" ]));
                Let ("rw", Call ("open", [ Str "/wo"; i 3; i F.rdwr ]));
                If (Call ("read", [ v "rw"; v "buf"; i 6 ]) <>: i 6,
                    [ Return (i 3) ], []);
                Expr (Call ("close", [ v "rw" ]));
                Let ("r", Call ("open", [ Str "/wo"; i 3; i F.rdonly ]));
                If (Call ("read", [ v "r"; v "buf"; i 6 ]) <>: i 6,
                    [ Return (i 4) ], []);
                Expr (Call ("close", [ v "r" ]));
                Return (i 0);
              ];
          ]))

let test_poll_nfds_range () =
  (* regression: an entry count outside [0, 64] is EINVAL, as Linux
     answers a count past RLIMIT_NOFILE; EFAULT stays for an entry array
     outside the SIP *)
  ignore
    (check_run ~exit_code:0 ~output:""
       (rt
          [
            func "main" []
              [
                Let ("pe", Call ("malloc", [ i (65 * 24) ]));
                If (Syscall (Sys.poll, [ v "pe"; i 65; i 0 ]) <>: i Errno.einval,
                    [ Return (i 1) ], []);
                If (Syscall (Sys.poll, [ v "pe"; i (-1); i 0 ]) <>: i Errno.einval,
                    [ Return (i 2) ], []);
                If (Syscall (Sys.poll, [ i 16; i 1; i 0 ]) <>: i Errno.efault,
                    [ Return (i 3) ], []);
                If (Syscall (Sys.poll, [ v "pe"; i 0; i 0 ]) <>: i 0,
                    [ Return (i 4) ], []);
                Return (i 0);
              ];
          ]))

let test_file_size_cap () =
  (* a size past Sefs.max_file_size is EFBIG, refused before anything is
     allocated; the SIP and the LibOS carry on *)
  let cap = Occlum_libos.Sefs.max_file_size in
  let os =
    check_run ~exit_code:0 ~output:"alive"
      (rt
         [
           func "main" []
             [
               Let ("fd", Call ("open", [ Str "/big"; i 4; i (F.creat lor F.rdwr) ]));
               If (Syscall (Sys.ftruncate, [ v "fd"; i (1 lsl 40) ]) <>: i Errno.efbig,
                   [ Return (i 1) ], []);
               If (Syscall (Sys.ftruncate, [ v "fd"; i (cap + 1) ]) <>: i Errno.efbig,
                   [ Return (i 2) ], []);
               If (Syscall (Sys.lseek, [ v "fd"; i (max_int - 100); i 0 ])
                   <>: i (max_int - 100), [ Return (i 3) ], []);
               If (Call ("write", [ v "fd"; Str "x"; i 1 ]) <>: i Errno.efbig,
                   [ Return (i 4) ], []);
               Expr (Syscall (Sys.lseek, [ v "fd"; i (cap - 1); i 0 ]));
               If (Call ("write", [ v "fd"; Str "xy"; i 2 ]) <>: i Errno.efbig,
                   [ Return (i 5) ], []);
               Expr (Syscall (Sys.lseek, [ v "fd"; i 0; i 0 ]));
               If (Call ("write", [ v "fd"; Str "ok"; i 2 ]) <>: i 2,
                   [ Return (i 6) ], []);
               Expr (Call ("close", [ v "fd" ]));
               Expr (Call ("print_cstr", [ Str "alive" ]));
               Return (i 0);
             ];
         ])
  in
  Alcotest.(check string) "nothing grew" "ok" (sefs_file os "/big");
  (match Occlum_libos.Sefs.lookup os.Os.sefs "/big" with
  | Some n ->
      Alcotest.(check int) "one block" 1 (Array.length n.Occlum_libos.Sefs.blocks)
  | None -> Alcotest.fail "/big missing");
  ignore (Os.state_digest os)

let test_epc_paging_differential () =
  (* The paper's graceful-degradation claim, end to end: SIPs whose
     aggregate working set exceeds a shrunken EPC must run to completion
     under demand paging, with exit codes and console output
     bit-identical to the same workload on an uncapped pool. Each child
     writes one word to each of 40 heap pages and prints their sum read
     back, so its own working set exceeds the 24-frame pool. *)
  let pages = 40 in
  let child n code =
    rt
      [
        func "main" []
          [
            Expr (Call ("print_cstr", [ Str (Printf.sprintf "child %d\n" n) ]));
            Let ("h", Call ("malloc", [ i ((pages + 1) * 4096) ]));
            Let ("k", i 0);
            While
              ( v "k" <: i pages,
                [
                  Store (v "h" +: (v "k" *: i 4096), v "k" +: i n);
                  Assign ("k", v "k" +: i 1);
                ] );
            Let ("sum", i 0);
            Assign ("k", i 0);
            While
              ( v "k" <: i pages,
                [
                  Assign ("sum", v "sum" +: Load (v "h" +: (v "k" *: i 4096)));
                  Assign ("k", v "k" +: i 1);
                ] );
            Expr (Call ("print_int", [ v "sum" ]));
            Expr (Call ("puts", [ Str "\n"; i 1 ]));
            Return (i code);
          ];
      ]
  in
  let parent =
    rt
      [
        func "main" []
          [
            Let ("st", Global_addr "_rt_misc_buf");
            Let ("p1", Call ("spawn0", [ Str "/bin/c1"; i 7 ]));
            Let ("g1", Call ("waitpid", [ v "p1"; v "st" ]));
            If (v "g1" <>: v "p1", [ Return (i 1) ], []);
            Expr (Call ("print_int", [ Load (v "st") ]));
            Expr (Call ("puts", [ Str "\n"; i 1 ]));
            Let ("p2", Call ("spawn0", [ Str "/bin/c2"; i 7 ]));
            Let ("g2", Call ("waitpid", [ v "p2"; v "st" ]));
            If (v "g2" <>: v "p2", [ Return (i 2) ], []);
            Expr (Call ("print_int", [ Load (v "st") ]));
            Expr (Call ("puts", [ Str "\n"; i 1 ]));
            Return (i 0);
          ];
      ]
  in
  let run ?epc () =
    let os = Os.boot ?epc () in
    let build prog =
      let oelf =
        Occlum_toolchain.Compile.compile_exn
          ~config:Occlum_toolchain.Codegen.sfi prog
      in
      match Occlum_verifier.Verify.verify_and_sign oelf with
      | Ok s -> s
      | Error rs ->
          failwith (Occlum_verifier.Verify.rejection_to_string (List.hd rs))
    in
    Os.install_binary os "/bin/c1" (build (child 1 11));
    Os.install_binary os "/bin/c2" (build (child 2 22));
    Os.install_binary os "/bin/app" (build parent);
    let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
    let status = Os.run ~max_steps:4_000_000 os in
    let code =
      match Os.find_proc os pid with Some p -> p.exit_code | None -> 0
    in
    (os, status, code)
  in
  let base_os, base_status, base_code = run () in
  Alcotest.(check bool) "uncapped run finished" true
    (base_status = Os.All_exited);
  let pool = Occlum_sgx.Epc.create ~size:(24 * 4096) () in
  Occlum_sgx.Epc.enable_paging pool;
  let paged_os, paged_status, paged_code = run ~epc:pool () in
  Alcotest.(check bool) "paged run finished" true
    (paged_status = Os.All_exited);
  Alcotest.(check int) "exit codes identical" base_code paged_code;
  Alcotest.(check string) "console bit-identical"
    (Os.console_output base_os)
    (Os.console_output paged_os);
  (match Occlum_sgx.Epc.paging_stats pool with
  | Some s -> Alcotest.(check bool) "paging actually happened" true (s.Occlum_sgx.Epc.ewb > 0)
  | None -> Alcotest.fail "paging stats missing");
  Occlum_sgx.Enclave.destroy paged_os.Os.enclave;
  Alcotest.(check int) "used_pages zero after destroy" 0
    (Occlum_sgx.Epc.used_pages pool);
  Alcotest.(check int) "backing drained after destroy" 0
    (Occlum_sgx.Epc.backing_used pool)

(* An untrusted [len] must not size a host allocation: a pipe read may
   allocate only what is waiting, and a write may read only what the
   ring takes. Two runs differ only in [len] (16 bytes vs 3 MiB): a read
   from a pipe holding 3 bytes returns 3, a write into a ring with one
   free byte returns 1, and the LibOS allocates the same either way. *)
let test_untrusted_len_no_alloc () =
  let big = 3 * 1024 * 1024 in
  let prog len =
    rt
      [
        func "main" []
          [
            Let ("fds", Global_addr "_rt_misc_buf");
            Let ("buf", Call ("malloc", [ i 65536 ]));
            Expr (Syscall (Sys.pipe, [ v "fds" ]));
            Let ("r1", Load (v "fds"));
            Let ("w1", Load (v "fds" +: i 8));
            Expr (Syscall (Sys.pipe, [ v "fds" ]));
            Let ("w2", Load (v "fds" +: i 8));
            Expr (Call ("write", [ v "w1"; Str "abc"; i 3 ]));
            Let ("got", Call ("read", [ v "r1"; v "buf"; i len ]));
            If (Call ("write", [ v "w2"; v "buf"; i 65535 ]) <>: i 65535,
                [ Return (i 1) ], []);
            Let ("put", Call ("write", [ v "w2"; v "buf"; i len ]));
            Return ((v "got" *: i 10) +: v "put");
          ];
      ]
  in
  let config =
    { Os.default_config with
      domains =
        { Occlum_libos.Domain_mgr.max_domains = 2;
          domain_code_size = 256 * 1024;
          domain_data_size = 4 * 1024 * 1024 } }
  in
  let measure len =
    let os = Os.boot ~config () in
    let oelf =
      match
        Occlum_verifier.Verify.verify_and_sign
          (Occlum_toolchain.Compile.compile_exn
             ~config:Occlum_toolchain.Codegen.sfi (prog len))
      with
      | Ok s -> s
      | Error rs ->
          failwith (Occlum_verifier.Verify.rejection_to_string (List.hd rs))
    in
    Os.install_binary os "/bin/app" oelf;
    let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
    let a0 = Gc.allocated_bytes () in
    let status = Os.run ~max_steps:2_000_000 os in
    let alloc = Gc.allocated_bytes () -. a0 in
    Alcotest.(check bool) "finished" true (status = Os.All_exited);
    let code =
      match Os.find_proc os pid with Some p -> p.exit_code | None -> -1
    in
    Alcotest.(check int) (Printf.sprintf "len %d: read 3, wrote 1" len) 31 code;
    alloc
  in
  (* the least of three runs, so a one-off resize of some long-lived
     table does not count as the syscall's allocation *)
  let least len = List.fold_left min infinity (List.init 3 (fun _ -> measure len)) in
  let small = least 16 and large = least big in
  Alcotest.(check bool)
    (Printf.sprintf "3 MiB len allocates like 16 (%.0f vs %.0f bytes)" large small)
    true
    (Float.abs (large -. small) < 65536.)

(* The direct pipe/socket path under EPC paging. A SIP writes a
   20 KiB pattern through a pipe and through a loopback socket, from and
   into unaligned buffers that span six pages each, and prints what it
   received. The pool has four frames, so within one syscall paging in a
   later page of the buffer evicts an earlier one. The console bytes and
   every syscall's return value and virtual latency must match the
   unpaged run. *)
let test_direct_path_paged () =
  let n = 5 * 4096 in
  let prog =
    rt
      [
        func "main" []
          [
            Let ("a", Call ("malloc", [ i (n + 32) ]) +: i 8);
            Let ("b", Call ("malloc", [ i (n + 32) ]) +: i 8);
            Let ("k", i 0);
            While
              ( v "k" <: i n,
                [
                  Store1 (v "a" +: v "k", i 33 +: ((v "k" *: i 7) %: i 90));
                  Assign ("k", v "k" +: i 1);
                ] );
            Let ("fds", Global_addr "_rt_misc_buf");
            Expr (Syscall (Sys.pipe, [ v "fds" ]));
            Let ("r", Load (v "fds"));
            Let ("w", Load (v "fds" +: i 8));
            If (Call ("write", [ v "w"; v "a"; i n ]) <>: i n, [ Return (i 1) ], []);
            If (Call ("read", [ v "r"; v "b"; i n ]) <>: i n, [ Return (i 2) ], []);
            Expr (Call ("puts", [ v "b"; i n ]));
            Let ("ls", Syscall (Sys.socket, []));
            Expr (Syscall (Sys.bind, [ v "ls"; i 9100 ]));
            Expr (Syscall (Sys.listen, [ v "ls"; i 4 ]));
            Let ("cl", Syscall (Sys.socket, []));
            Expr (Syscall (Sys.connect, [ v "cl"; i 9100 ]));
            Let ("srv", Syscall (Sys.accept, [ v "ls" ]));
            If (Syscall (Sys.send, [ v "cl"; v "a"; i n ]) <>: i n,
                [ Return (i 3) ], []);
            Expr (Call ("memset", [ v "b"; i 0; i n ]));
            If (Syscall (Sys.recv, [ v "srv"; v "b"; i n ]) <>: i n,
                [ Return (i 4) ], []);
            Expr (Call ("puts", [ v "b"; i n ]));
            Return (i 0);
          ];
      ]
  in
  let run ?epc () =
    let obs = Occlum_obs.Obs.create ~events:[ Occlum_obs.Obs.Syscall ] () in
    let os = Os.boot ?epc ~obs () in
    (match
       Occlum_verifier.Verify.verify_and_sign
         (Occlum_toolchain.Compile.compile_exn
            ~config:Occlum_toolchain.Codegen.sfi prog)
     with
    | Ok s -> Os.install_binary os "/bin/app" s
    | Error rs ->
        failwith (Occlum_verifier.Verify.rejection_to_string (List.hd rs)));
    let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
    let status = Os.run ~max_steps:4_000_000 os in
    Alcotest.(check bool) "finished" true (status = Os.All_exited);
    let code =
      match Os.find_proc os pid with Some p -> p.exit_code | None -> -1
    in
    Alcotest.(check int) "exit code" 0 code;
    let syscalls =
      List.filter_map
        (fun (e : Occlum_obs.Trace.event) ->
          match e.kind with
          | Occlum_obs.Trace.Syscall_exit { nr; ret; latency_ns; _ } ->
              Some (Printf.sprintf "%d=%Ld/%Ldns" nr ret latency_ns)
          | _ -> None)
        (Occlum_obs.Trace.events obs.Occlum_obs.Obs.trace)
    in
    (Os.console_output os, syscalls)
  in
  let console, syscalls = run () in
  let pattern = String.init n (fun k -> Char.chr (33 + (k * 7 mod 90))) in
  Alcotest.(check bool) "unpaged console is the pattern twice" true
    (console = pattern ^ pattern);
  let frames = 5 in
  Alcotest.(check bool) "fewer frames than one buffer's pages" true
    (frames < (n / 4096) + 1);
  let pool = Occlum_sgx.Epc.create ~size:(frames * 4096) () in
  Occlum_sgx.Epc.enable_paging pool;
  let paged_console, paged_syscalls = run ~epc:pool () in
  Alcotest.(check bool) "console bytes identical" true (console = paged_console);
  Alcotest.(check (list string)) "syscall returns and virtual latencies identical"
    syscalls paged_syscalls;
  match Occlum_sgx.Epc.paging_stats pool with
  | Some s -> Alcotest.(check bool) "paging happened" true (s.Occlum_sgx.Epc.ewb > 0)
  | None -> Alcotest.fail "paging stats missing"

(* Enclave memory is stored on first touch. A default boot maps every
   slot of its 20 MiB enclave but stores under 1 MiB of it, and
   installing a binary into SEFS stores nothing more. A spawn stores the
   slot it loads, and the SIP's run then grows the store no further. *)
let test_boot_stores_on_demand () =
  let module Mem = Occlum_machine.Mem in
  let os = Os.boot () in
  let stored () = Bytes.length (Mem.raw os.Os.mem) in
  Alcotest.(check bool) "a 20 MiB enclave" true (Mem.size os.Os.mem > 20 lsl 20);
  Alcotest.(check bool) "booted: under 1 MiB stored" true (stored () < 1 lsl 20);
  let oelf =
    match
      Occlum_verifier.Verify.verify_and_sign
        (Occlum_toolchain.Compile.compile_exn ~config:Occlum_toolchain.Codegen.sfi
           (rt
              [
                func "main" []
                  [ Expr (Call ("print_cstr", [ Str "hi\n" ])); Return (i 3) ];
              ]))
    with
    | Ok s -> s
    | Error rs -> failwith (Occlum_verifier.Verify.rejection_to_string (List.hd rs))
  in
  Os.install_binary os "/bin/app" oelf;
  Alcotest.(check bool) "installed: under 1 MiB stored" true (stored () < 1 lsl 20);
  let pid = Os.spawn os ~parent_pid:0 ~path:"/bin/app" ~args:[] in
  let spawned = stored () in
  Alcotest.(check bool) "spawned: the slot is stored" true (spawned >= 1 lsl 20);
  Alcotest.(check bool) "finished" true (Os.run ~max_steps:2_000_000 os = Os.All_exited);
  Alcotest.(check int) "exit code" 3
    (match Os.find_proc os pid with Some p -> p.exit_code | None -> -1);
  Alcotest.(check int) "the run stored nothing more" spawned (stored ())

(* Socket rings hold storage only while bytes are queued: 1,000
   connected pairs at the default 64 KiB per direction, each of which
   has carried a request and a reply, add under 1 MiB of live heap
   once drained. *)
let test_idle_sockets_hold_no_storage () =
  let module Net = Occlum_libos.Net in
  let os = Os.boot () in
  let net = os.Os.net in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Stdlib.Sys.word_size / 8)
  in
  let l =
    match Net.listen net ~port:8080 ~backlog:1000 with
    | Ok l -> l
    | Error e -> Alcotest.failf "listen: errno %d" e
  in
  let before = live () in
  let pairs =
    List.init 1000 (fun _ ->
        match Net.external_connect net ~port:8080 with
        | Ok client -> (
            match Net.accept l with
            | Some server -> (client, server)
            | None -> Alcotest.fail "accept")
        | Error e -> Alcotest.failf "connect: errno %d" e)
  in
  let buf = Bytes.create 64 in
  List.iter
    (fun (client, server) ->
      Alcotest.(check int) "request sent" 4 (Net.external_send net client "ping");
      Alcotest.(check bool) "request read" true (Net.recv net server buf 0 64 = Ok 4);
      Alcotest.(check bool) "reply sent" true
        (Net.send net server (Bytes.of_string "pong") 0 4 = Ok 4);
      Alcotest.(check int) "reply read" 4 (Net.external_recv_into net client buf))
    pairs;
  let added = live () - before in
  Alcotest.(check bool)
    (Printf.sprintf "1,000 idle pairs add under 1 MiB (%d bytes)" added)
    true (added < 1 lsl 20);
  Alcotest.(check int) "all pairs kept" 1000 (List.length pairs)

let suite =
  [
    Alcotest.test_case "hello world" `Quick test_hello;
    Alcotest.test_case "EPC paging differential" `Quick
      test_epc_paging_differential;
    Alcotest.test_case "spawn/wait/argv" `Quick test_spawn_wait_argv;
    Alcotest.test_case "spawn missing binary" `Quick test_spawn_missing_binary;
    Alcotest.test_case "wait with no children" `Quick test_wait_echild;
    Alcotest.test_case "pipe roundtrip" `Quick test_pipe_roundtrip;
    Alcotest.test_case "pipe EOF and EPIPE" `Quick test_pipe_eof_and_epipe;
    Alcotest.test_case "fs syscalls" `Quick test_fs_syscalls;
    Alcotest.test_case "append and trunc" `Quick test_append_and_trunc;
    Alcotest.test_case "resize zeroes stale bytes" `Quick
      test_resize_zeroes_stale_bytes;
    Alcotest.test_case "file size cap (EFBIG)" `Quick test_file_size_cap;
    Alcotest.test_case "read-only fd: ftruncate EINVAL, write EBADF" `Quick
      test_readonly_fd_keeps_file;
    Alcotest.test_case "write-only fd: read EBADF" `Quick
      test_writeonly_fd_denies_read;
    Alcotest.test_case "devfs and procfs" `Quick test_devfs_procfs;
    Alcotest.test_case "mmap and brk" `Quick test_mmap_brk;
    Alcotest.test_case "signal handlers + sigreturn" `Quick test_signals;
    Alcotest.test_case "default signal kills" `Quick test_default_signal_kills;
    Alcotest.test_case "threads + futex" `Quick test_threads_futex;
    Alcotest.test_case "threads + futex under Linux" `Quick
      test_threads_futex_linux;
    Alcotest.test_case "sockets" `Quick test_sockets;
    Alcotest.test_case "dup2" `Quick test_dup2_inheritance;
    Alcotest.test_case "nanosleep/gettime" `Quick test_sleep_gettime;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "domain slot exhaustion" `Quick test_slot_exhaustion;
    Alcotest.test_case "slot reuse is scrubbed" `Quick test_slot_scrub;
    Alcotest.test_case "same-binary slot reuse is scrubbed" `Quick
      test_slot_reuse_same_binary;
    Alcotest.test_case "respawn keeps JIT translations" `Quick
      test_respawn_keeps_translations;
    Alcotest.test_case "loader rejects unsigned" `Quick test_loader_rejects_unsigned;
    Alcotest.test_case "image memo needs identical bytes" `Quick test_image_memo;
    Alcotest.test_case "EIP (Graphene) mode" `Quick test_eip_mode_runs;
    Alcotest.test_case "Linux mode" `Quick test_linux_mode_runs;
    Alcotest.test_case "SGX2 (EDMM) mode" `Quick test_sgx2_mode;
    Alcotest.test_case "poll" `Quick test_poll;
    Alcotest.test_case "poll nfds out of range is EINVAL" `Quick
      test_poll_nfds_range;
    Alcotest.test_case "fcntl O_NONBLOCK -> EAGAIN" `Quick test_nonblock_eagain;
    Alcotest.test_case "epoll ctl/wait semantics" `Quick test_epoll;
    Alcotest.test_case "poll unconnected/hup socket" `Quick
      test_poll_unconnected_socket;
    Alcotest.test_case "listener close releases port" `Quick
      test_listener_close_releases_port;
    Alcotest.test_case "batched syscalls" `Quick test_batch_syscall;
    Alcotest.test_case "unknown syscall numbers are ENOSYS" `Quick
      test_hostile_syscall_numbers;
    Alcotest.test_case "bit-63 syscall number at the gate is ENOSYS" `Quick
      test_syscall_bit63_gate;
    Alcotest.test_case "bit-63 syscall number in a batch is ENOSYS" `Quick
      test_syscall_bit63_batch;
    Alcotest.test_case "system facade" `Quick test_facade;
    Alcotest.test_case "user pointer validation" `Quick test_bad_user_pointer;
    Alcotest.test_case "read with a huge len is EFAULT" `Quick
      test_read_len_overflow;
    Alcotest.test_case "epoll_wait maxevents cannot wrap" `Quick
      test_epoll_maxevents_wrap;
    Alcotest.test_case "mmap negative offset is EINVAL" `Quick
      test_mmap_negative_offset;
    Alcotest.test_case "mmap of a write-only fd is EACCES" `Quick
      test_mmap_write_only_fd;
    Alcotest.test_case "lseek unknown whence is EINVAL" `Quick
      test_lseek_whence;
    Alcotest.test_case "untrusted len sizes no allocation" `Quick
      test_untrusted_len_no_alloc;
    Alcotest.test_case "pipe/socket direct path under paging" `Quick
      test_direct_path_paged;
    Alcotest.test_case "boot stores enclave memory on demand" `Quick
      test_boot_stores_on_demand;
    Alcotest.test_case "idle sockets hold no ring storage" `Quick
      test_idle_sockets_hold_no_storage;
  ]
