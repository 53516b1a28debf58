(* occlum_lint: the unified static-diagnostics driver over OELF
   binaries. One verification pass feeds every analysis client through
   the [Verify.accepted] it returns:

   - OL001 unreachable-block and OL002 dead-flag-update (cheap CFG lints)
   - OL003 redundant-guard, from the guard-elision classifier over the
     fixpoint the verifier's Stage 4 computed ({!Lint.redundant_guards},
     shared with occlum_verify --guard-audit)
   - OL004/5/6, the constant-time taint findings (when the binary
     declares secret regions)

   --elide additionally rewrites the binary with the redundant guards
   dropped, re-verifies it with the unmodified verifier, signs that
   acceptance and writes it out.

   Exit codes mirror occlum_verify: 0 clean; 1 rejected by a
   verification stage; 2 malformed input; 3 signature present but
   invalid; 4 findings reported; 5 elision pass bug (the rewritten
   binary failed re-verification — never a security event, the verifier
   still rejects it). *)

open Cmdliner
module Verify = Occlum_verifier.Verify
module Taint = Occlum_analysis.Taint
module Cfg = Occlum_analysis.Cfg
module Lint = Occlum_analysis.Lint
module Elide = Occlum_analysis.Elide

let read_oelf path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Occlum_oelf.Oelf.of_string s

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

(* [report] is elision's classification of [accepted] *)
let collect_findings (oelf : Occlum_oelf.Oelf.t) accepted
    (report : Elide.report) =
  let cfg = Cfg.build ~entry:oelf.entry (Verify.disasm accepted) in
  let taint = List.map Lint.of_taint (Taint.check accepted) in
  let findings =
    Lint.unreachable_blocks cfg @ Lint.dead_flag_updates cfg
    @ Lint.redundant_guards report @ taint
  in
  List.sort Lint.compare_findings findings

let lint input sarif_out elide_out =
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
          (* [Elide.run] classifies as [Elide.analyze] does and returns
             that report, so the input is classified once; only a failed
             elision classifies again for the findings *)
          let elided =
            Option.map (fun out -> (out, Elide.run accepted)) elide_out
          in
          let report =
            match elided with
            | Some (_, Ok (_, r)) -> r
            | None | Some (_, Error _) -> Elide.analyze accepted
          in
          let findings = collect_findings oelf accepted report in
          Printf.printf
            "%s: %d finding(s); %d/%d mem_guard(s) elidable%s\n"
            input (List.length findings) report.elided report.total
            (if report.bailed then " (irreducible CFG: elision bailed)"
             else "");
          print_string (Lint.to_text findings);
          (match sarif_out with
          | Some path -> write_file path (Lint.to_sarif ~uri:input findings)
          | None -> ());
          (match elided with
          | None -> ()
          | Some (out, Ok (elided, r)) ->
              let oc = open_out_bin out in
              output_string oc (Occlum_oelf.Oelf.to_string (Verify.sign elided));
              close_out oc;
              Printf.printf
                "elided binary written to %s (%d guard(s) dropped, \
                 re-verified, signed)\n"
                out r.elided
          | Some (_, Error e) ->
              prerr_endline (Elide.error_to_string e);
              exit 5);
          if findings <> [] then exit 4)

let input_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.oelf")

let sarif_arg =
  Arg.(value & opt (some string) None
       & info [ "json"; "sarif" ] ~docv:"FILE"
           ~doc:"Write the findings as a SARIF 2.1.0 document to $(docv).")

let elide_arg =
  Arg.(value & opt (some string) None
       & info [ "elide" ] ~docv:"OUT.oelf"
           ~doc:"Drop the provably-redundant mem_guards, re-verify with the \
                 unmodified verifier, re-sign, and write the result to \
                 $(docv). Exit 5 if the rewritten binary fails \
                 re-verification (a pass bug).")

let cmd =
  Cmd.v
    (Cmd.info "occlum_lint"
       ~doc:"Unified static diagnostics (and guard elision) for OELF \
             binaries")
    Term.(const lint $ input_arg $ sarif_arg $ elide_arg)

let () = exit (Cmd.eval cmd)
