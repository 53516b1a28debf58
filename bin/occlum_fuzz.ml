(* occlum_fuzz: the deterministic fault-injection property fuzzer.
   Every run is a pure function of (--seed, --cases, --property): the
   JSON report is bit-reproducible, so a failing invocation IS the bug
   report. --shrink minimizes item-level failures with ddmin before
   reporting; --emit-corpus regenerates the checked-in seed corpus.

   Exit codes: 0 all properties passed; 1 failures found; 2 bad usage. *)

open Cmdliner
module Check = Occlum_fuzzing.Check

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

let parse_properties names =
  match names with
  | [] -> Ok Check.all_properties
  | names ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | "all" :: rest -> go (List.rev_append Check.all_properties acc) rest
        | n :: rest -> (
            match Check.property_of_name n with
            | Some p -> go (p :: acc) rest
            | None ->
                Error
                  (Printf.sprintf "unknown property %S (known: %s)" n
                     (String.concat ", "
                        (List.map Check.property_name Check.all_properties))))
      in
      go [] names

let main seed cases properties shrink json emit_corpus =
  match parse_properties properties with
  | Error m ->
      prerr_endline m;
      exit 2
  | Ok props -> (
      match emit_corpus with
      | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let written = Check.emit_corpus ~dir ~seed in
          List.iter
            (fun (file, n) -> Printf.printf "%s: %d instructions\n" file n)
            written;
          let ord = Check.emit_orderliness_corpus ~dir ~seed in
          Printf.printf "%s: orderliness scenarios\n" ord;
          Printf.printf "%d corpus files written to %s\n"
            (List.length written + 1)
            dir;
          exit 0
      | None ->
          let report =
            Check.run ~properties:props ~shrink ~seed ~cases ()
          in
          print_string (Check.summary report);
          (match json with
          | Some path -> write_file path (Check.report_to_json report)
          | None -> ());
          exit (if Check.ok report then 0 else 1))

let seed =
  let doc = "Master seed; the whole run is a pure function of it." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)

let cases =
  let doc = "Cases to run per property." in
  Arg.(value & opt int 200 & info [ "cases" ] ~docv:"N" ~doc)

let properties =
  let doc =
    "Property to run (repeatable): codec-roundtrip, verifier-soundness, \
     aex-identity, epc-pressure, mc-determinism, guard-elide, \
     jit-equivalence, cluster-orderliness, or all. Default: all."
  in
  Arg.(value & opt_all string [] & info [ "property"; "p" ] ~docv:"PROP" ~doc)

let shrink =
  let doc = "Minimize failing programs with ddmin before reporting." in
  Arg.(value & flag & info [ "shrink" ] ~doc)

let json =
  let doc = "Write the bit-reproducible JSON report to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)

let emit_corpus =
  let doc =
    "Instead of fuzzing, write one minimized program per generator feature \
     into $(docv) (the checked-in test corpus) and exit."
  in
  Arg.(
    value & opt (some string) None & info [ "emit-corpus" ] ~docv:"DIR" ~doc)

let cmd =
  let doc = "deterministic fault-injection property fuzzer" in
  let info = Cmd.info "occlum_fuzz" ~doc in
  Cmd.v info Term.(const main $ seed $ cases $ properties $ shrink $ json $ emit_corpus)

let () = exit (Cmd.eval cmd)
