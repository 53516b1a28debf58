(* occlum_verify: the independent Occlum verifier as a standalone tool.
   Reads an OELF binary, runs the four verification stages of §5, and on
   success emits the signed binary. Beyond plain verification it hosts
   the static-analysis clients: --ct runs the constant-time taint
   checker over the declared secret regions, --guard-audit reports the
   mem_guards guard elision classifies redundant, per function.

   Exit codes: 0 verified (and clean, under --ct); 1 rejected by a
   verification stage; 2 malformed input; 3 signature present but
   invalid; 4 constant-time findings. *)

open Cmdliner
module Verify = Occlum_verifier.Verify
module Disasm = Occlum_verifier.Disasm
module Taint = Occlum_analysis.Taint
module Elide = Occlum_analysis.Elide
module Lint = Occlum_analysis.Lint

let read_oelf path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Occlum_oelf.Oelf.of_string s

let write_json path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

let ct_json findings =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"findings\":[";
  List.iteri
    (fun i (f : Taint.finding) ->
      if i > 0 then Buffer.add_char b ',';
      let kind =
        match f.kind with
        | Taint.Secret_branch -> "secret_branch"
        | Taint.Secret_addr -> "secret_addr"
        | Taint.Secret_latency -> "secret_latency"
      in
      Buffer.add_string b
        (Printf.sprintf "{\"addr\":%d,\"kind\":\"%s\",\"insn\":\"%s\"}" f.addr
           kind (String.concat "'" (String.split_on_char '"' f.insn))))
    findings;
  Buffer.add_string b (Printf.sprintf "],\"count\":%d}" (List.length findings));
  Buffer.contents b

(* The guard audit: elision's classification of [accepted], its guards
   counted per owning function (a symbol owns [offset, next)), with one
   OL003 finding per redundant guard. Text on stdout; the same report as
   JSON to [json]. *)
let guard_audit accepted json =
  let report = Elide.analyze accepted in
  let syms =
    List.sort (fun (_, a) (_, b) -> compare a b) (Verify.binary accepted).symbols
  in
  let func_of addr =
    List.fold_left
      (fun owner (name, off) -> if off <= addr then name else owner)
      "<unknown>" syms
  in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (g : Elide.guard) ->
      let name = func_of g.addr in
      let n, r = Option.value (Hashtbl.find_opt counts name) ~default:(0, 0) in
      Hashtbl.replace counts name
        (n + 1, if g.cls = Elide.Redundant then r + 1 else r))
    report.guards;
  let funcs =
    List.sort compare
      (Hashtbl.fold (fun name (n, r) acc -> (name, n, r) :: acc) counts [])
  in
  let findings = Lint.redundant_guards report in
  Printf.printf "guard audit: %d mem_guard(s), %d provably redundant\n"
    report.total report.elided;
  List.iter
    (fun (name, n, r) ->
      Printf.printf "  %-24s %4d guard(s), %4d redundant\n" name n r)
    funcs;
  print_string (Lint.to_text findings);
  Option.iter
    (fun path ->
      write_json path
        (Printf.sprintf
           "{\"guards_total\":%d,\"redundant_total\":%d,\"funcs\":[%s],\
            \"findings\":[%s]}"
           report.total report.elided
           (String.concat ","
              (List.map
                 (fun (name, n, r) ->
                   Printf.sprintf
                     "{\"name\":\"%s\",\"guards\":%d,\"redundant\":%d}"
                     (Occlum_util.Json.escape name) n r)
                 funcs))
           (String.concat "," (List.map Lint.finding_json findings))))
    json

let verify input output disasm ct guard_audit_flag json =
  match read_oelf input with
  | exception Occlum_oelf.Oelf.Malformed m ->
      prerr_endline ("malformed OELF: " ^ m);
      exit 2
  | exception Sys_error m ->
      prerr_endline m;
      exit 2
  | oelf -> (
      if oelf.signature <> None && not (Verify.signature_ok oelf)
      then begin
        Printf.printf "%s: SIGNATURE INVALID\n" input;
        exit 3
      end;
      match Verify.verify oelf with
      | Error rs ->
          Printf.printf "%s: REJECTED\n" input;
          List.iter
            (fun r -> print_endline ("  " ^ Verify.rejection_to_string r))
            rs;
          exit 1
      | Ok accepted ->
          let d = Verify.disasm accepted in
          Printf.printf "%s: VERIFIED (%d instructions, %d cfi_labels)\n" input
            (Array.length d.Disasm.sorted)
            (List.length d.Disasm.labels);
          if disasm then print_endline (Disasm.listing d);
          (match output with
          | None -> ()
          | Some out ->
              let signed = Verify.sign accepted in
              let oc = open_out_bin out in
              output_string oc (Occlum_oelf.Oelf.to_string signed);
              close_out oc;
              Printf.printf "signed binary written to %s\n" out);
          if guard_audit_flag then guard_audit accepted json;
          if ct then begin
            let findings = Taint.check accepted in
            (match json with
            | Some path when not guard_audit_flag ->
                write_json path (ct_json findings)
            | _ -> ());
            match findings with
            | [] ->
                if oelf.secret_ranges = [] then
                  Printf.printf
                    "%s: no secret regions declared; nothing to check\n" input
                else
                  Printf.printf "%s: CONSTANT-TIME (%d secret region(s))\n"
                    input
                    (List.length oelf.secret_ranges)
            | fs ->
                Printf.printf "%s: %d constant-time finding(s)\n" input
                  (List.length fs);
                List.iter
                  (fun f -> print_endline ("  " ^ Taint.finding_to_string f))
                  fs;
                exit 4
          end)

let input_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.oelf")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "sign" ]
         ~doc:"Write the signed binary here on success.")

let disasm_arg =
  Arg.(value & flag & info [ "d"; "disasm" ] ~doc:"Print the disassembly.")

let ct_arg =
  Arg.(value & flag
       & info [ "ct" ]
           ~doc:"Run the constant-time taint checker over the binary's \
                 declared secret regions; exit 4 on findings.")

let guard_audit_arg =
  Arg.(value & flag
       & info [ "guard-audit" ]
           ~doc:"Report, per function, the mem_guards guard elision \
                 classifies redundant.")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the --ct or --guard-audit report as JSON to $(docv).")

let cmd =
  Cmd.v
    (Cmd.info "occlum_verify"
       ~doc:"Occlum verifier: check MMDSFI compliance of an OELF binary")
    Term.(const verify $ input_arg $ output_arg $ disasm_arg $ ct_arg
          $ guard_audit_arg $ json_arg)

let () = exit (Cmd.eval cmd)
