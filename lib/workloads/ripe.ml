(* RIPE-style security benchmark (§9.3).

   Each attack is a well-formed program (it passes the verifier — the
   threat model is a *benign-looking but vulnerable/compromised* SIP)
   that performs a buffer overflow through a real machine-level store and
   then lets the corrupted value steer control flow:

   technique:
   - [`Ret_overwrite]   the victim function overwrites its own saved
                        return address on the stack (classic RIPE);
   - [`Funcptr]         the attack corrupts a function pointer that is
                        then called.

   target:
   - [`Shellcode_labeled]    injected code in the data region, prefixed
                             with a forged cfi_label (the attacker knows
                             the domain id — worst case);
   - [`Shellcode_unlabeled]  ditto without the label;
   - [`Rop_gadget]           an instruction boundary inside existing code
                             that is not a cfi_label;
   - [`Return_to_libc]       the entry of a legitimate runtime function
                             (exit), with a forged argument planted.

   Expected outcome, mirroring the paper: Occlum prevents every
   code-injection and ROP attack (cfi_guard #BR or data-page #X fault);
   return-to-libc "succeeds" (libc entries are legitimate cfi_labels) but
   stays inside the SIP's own domain. The unprotected baseline (bare
   build, RWX data, real ret) falls to all of them.

   Magic exit codes identify a successful attack:
   1337 shellcode ran, 4242 gadget ran, 41 return-to-libc ran. *)

open Occlum_toolchain.Ast

type technique = Ret_overwrite | Funcptr
type target = Shellcode_labeled | Shellcode_unlabeled | Rop_gadget | Return_to_libc

type attack = { technique : technique; target : target; name : string }

let corpus =
  List.concat_map
    (fun (technique, tn) ->
      List.map
        (fun (target, gn) -> { technique; target; name = tn ^ "/" ^ gn })
        [
          (Shellcode_labeled, "shellcode-labeled");
          (Shellcode_unlabeled, "shellcode");
          (Rop_gadget, "rop-gadget");
          (Return_to_libc, "return-to-libc");
        ])
    [ (Ret_overwrite, "ret-overwrite"); (Funcptr, "funcptr") ]

let shellcode_exit_code = 1337
let gadget_exit_code = 4242
let libc_exit_code = 41
let gadget_arg = gadget_exit_code

(* Shellcode: exit(1337) as raw OASM bytes, optionally prefixed by a
   forged cfi_label for [domain_id]. The syscall uses an inline gate:
   Linux mode services it; under Occlum a stray gate would be
   killed — but under Occlum the shellcode never runs at all. *)
let shellcode ~labeled ~domain_id =
  let open Occlum_isa in
  let insns =
    (if labeled then [ Insn.Cfi_label (Int32.of_int domain_id) ] else [])
    @ [
        Insn.Mov_imm (Reg.of_int Occlum_abi.Abi.Regs.sys_arg0,
                      Int64.of_int shellcode_exit_code);
        Insn.Mov_imm (Reg.of_int Occlum_abi.Abi.Regs.sys_nr,
                      Int64.of_int Occlum_abi.Abi.Sys.exit);
        Insn.Syscall_gate;
      ]
  in
  String.concat "" (List.map Codec.encode insns)

let hex_encode s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
                      (List.init (String.length s) (String.get s)))

(* The attack program. argv[0] = hex payload bytes (shellcode) or ""
   argv[1] = decimal gadget delta from gadget_exit's entry (for
   Rop_gadget), "0" otherwise.

   Functions:
   - gadget_exit: its body (past entry+prologue) is the ROP gadget;
   - decode_hex: writes argv[0]'s bytes into the payload buffer;
   - victim_ret: overflows its own return slot (+ the word above, used
     as the planted argument for return-to-libc);
   - victim_ptr: corrupts a "function pointer" then calls it. *)
let attack_program (a : attack) =
  let target_expr =
    match a.target with
    | Shellcode_labeled | Shellcode_unlabeled -> v "payload_addr"
    | Rop_gadget -> Binop (Add, Func_addr "gadget_exit", v "delta")
    | Return_to_libc -> Func_addr "exit"
  in
  let victim_ret =
    (* frame layout at body entry (stack grows down):
         sp+0   dummy        (the "buffer" being overflowed)
         sp+8   saved return address            <- dummy+8
         sp+16  the argument slot (param t)
         sp+24  caller frame word
         sp+32  lands where a function entered via the corrupted return
                will look for its first argument  <- dummy+32 *)
    func "victim_ret" [ "t" ]
      [
        Let ("dummy", i 0);
        Expr (v "dummy");
        (* the overflow: stores walking past the buffer. dummy+8 is the
           saved return address; dummy+24 is the first stack word the
           hijacked return will expose (the ROP gadget pops it as its
           argument); dummy+32 is where a function entered through the
           corrupted return looks for its first parameter. *)
        Store (Frame_addr "dummy" +: i 8, v "t");
        Store (Frame_addr "dummy" +: i 24, i gadget_arg);
        Store (Frame_addr "dummy" +: i 32, i libc_exit_code);
        Return (i 0);
      ]
  in
  let victim_ptr =
    func "victim_ptr" [ "t" ]
      [
        (* handler starts as a benign function; the "overflow" replaces it *)
        Let ("handler", Func_addr "benign");
        Store (Frame_addr "handler", v "t");
        Expr (Call_ptr (v "handler", [ i libc_exit_code ]));
        Return (i 0);
      ]
  in
  Occlum_toolchain.Runtime.program
    ~globals:[ ("payload", 256) ]
    [
      func "benign" [] [ Return (i 7) ];
      (* Its tail is the ROP gadget: "... pop r2; mov r1, #exit; gate"
         consumes the attacker-planted stack word as the exit code. *)
      func "gadget_exit" []
        [
          Expr (Syscall (Occlum_abi.Abi.Sys.exit, [ i 99 ]));
          Return (i 0);
        ];
      func "decode_hex" [ "src"; "dst" ]
        [
          Let ("k", i 0);
          Let ("c", Load1 (v "src"));
          While
            ( v "c" <>: i 0,
              [
                Let ("hi", v "c");
                If (v "hi" >=: i 97, [ Assign ("hi", v "hi" -: i 87) ],
                    [ Assign ("hi", v "hi" -: i 48) ]);
                Let ("lo", Load1 (v "src" +: i 1));
                If (v "lo" >=: i 97, [ Assign ("lo", v "lo" -: i 87) ],
                    [ Assign ("lo", v "lo" -: i 48) ]);
                Store1 (v "dst" +: v "k", (v "hi" <<: i 4) |: v "lo");
                Assign ("src", v "src" +: i 2);
                Assign ("k", v "k" +: i 1);
                Assign ("c", Load1 (v "src"));
              ] );
          Return (v "k");
        ];
      victim_ret;
      victim_ptr;
      func "main" []
        [
          Expr (Call ("decode_hex", [ Call ("argv", [ i 0 ]); Global_addr "payload" ]));
          Let ("payload_addr", Global_addr "payload");
          Let ("delta", Call ("atoi", [ Call ("argv", [ i 1 ]) ]));
          Expr (v "payload_addr");
          Expr (v "delta");
          (match a.technique with
          | Ret_overwrite -> Expr (Call ("victim_ret", [ target_expr ]))
          | Funcptr -> Expr (Call ("victim_ptr", [ target_expr ])));
          (* control only reaches here if the attack fizzled benignly *)
          Return (i 0);
        ];
    ]

(* Locate the ROP gadget: the first [pop] inside gadget_exit. Entering
   there pops an attacker-planted stack word into the syscall-argument
   register and falls into "mov r1, #exit; gate" — a classic
   pop-reg; syscall gadget. Never a cfi_label, so MMDSFI rejects it. *)
let gadget_delta (oelf : Occlum_oelf.Oelf.t) =
  match Occlum_oelf.Oelf.find_symbol oelf "f_gadget_exit" with
  | None -> invalid_arg "gadget_delta: no gadget_exit symbol"
  | Some off ->
      let rec walk pos =
        if pos - off > 512 then invalid_arg "gadget_delta: no pop found"
        else
          match
            Occlum_isa.Codec.decode oelf.code ~pos ~limit:(Bytes.length oelf.code)
          with
          | Ok (Occlum_isa.Insn.Pop _, _) -> pos - off
          | Ok (_, len) -> walk (pos + len)
          | Error _ -> invalid_arg "gadget_delta: cannot decode gadget_exit"
      in
      walk off

type outcome = Attack_succeeded | Prevented of string

let outcome_to_string = function
  | Attack_succeeded -> "SUCCEEDED"
  | Prevented reason -> "prevented (" ^ reason ^ ")"

(* --- harness ---------------------------------------------------------- *)

let occlum_domain_id = 1 (* the first spawned SIP lands in slot 1 *)

let payload_hex (a : attack) ~domain_id =
  match a.target with
  | Shellcode_labeled -> hex_encode (shellcode ~labeled:true ~domain_id)
  | Shellcode_unlabeled -> hex_encode (shellcode ~labeled:false ~domain_id)
  | Rop_gadget | Return_to_libc -> ""

(* Run one attack as a SIP under the Occlum LibOS. *)
let run_on_occlum (a : attack) : outcome =
  let signed = Harness.build_for Harness.Occlum (attack_program a) in
  let os = Occlum_libos.Os.boot () in
  let delta = string_of_int (gadget_delta signed) in
  let pid =
    Occlum_libos.Os.spawn_initial os signed
      ~args:[ payload_hex a ~domain_id:occlum_domain_id; delta ]
  in
  ignore (Occlum_libos.Os.run ~max_steps:500_000 os);
  match Occlum_libos.Os.find_proc os pid with
  | Some { state = `Zombie; exit_code; _ } ->
      if exit_code = shellcode_exit_code || exit_code = gadget_exit_code
         || exit_code = libc_exit_code
      then Attack_succeeded
      else (
        match os.Occlum_libos.Os.faults with
        | (_, f) :: _ -> Prevented (Occlum_machine.Fault.to_string f)
        | [] -> Prevented (Printf.sprintf "exit %d" exit_code))
  | _ -> Prevented "no exit"

(* Run the same attack as an unprotected native process (no SFI, RWX
   data, hardware ret) — the RIPE baseline. *)
let run_on_baseline (a : attack) : outcome =
  let prog = attack_program a in
  let oelf = Occlum_toolchain.Compile.compile_exn
               ~config:Occlum_toolchain.Codegen.bare prog in
  let delta = string_of_int (gadget_delta oelf) in
  let r =
    Harness.run_bare oelf
      ~config:{ Occlum_libos.Os.default_config with exec_data = true }
      ~args:[ payload_hex a ~domain_id:0; delta ]
  in
  match r.fault with
  | Some f -> Prevented (Occlum_machine.Fault.to_string f)
  | None ->
      let code = r.exit_code in
      if code = shellcode_exit_code || code = gadget_exit_code
         || code = libc_exit_code
         (* a mid-function gadget that runs to an exit at all is a
            successful control-flow hijack even if the planted argument
            was not on top of the stack (the funcptr variant) *)
         || (a.target = Rop_gadget && code <> 0)
      then Attack_succeeded
      else Prevented (Printf.sprintf "exit %d" code)
