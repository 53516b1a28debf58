(* The shared diagnostics vocabulary of the static-analysis clients:
   every checker that reports a program point (guard audit, guard
   elision, constant-time taint, the cheap CFG lints below) speaks in
   [finding] records with stable OL rule ids, so `occlum_lint`,
   `occlum_verify` and CI artifacts all render the same shape.

   Emitters: plain text, a findings JSON object, and a SARIF 2.1.0
   document (the artifact CI uploads). *)

module U = Occlum_verifier.Unit_kind
module D = Occlum_verifier.Disasm
open Occlum_isa

type severity = Error | Warning | Note

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

type finding = {
  rule : string;    (* stable id, e.g. "OL003" *)
  addr : int;       (* code offset of the offending unit *)
  insn : string;    (* decoded unit text *)
  message : string;
  severity : severity;
}

(* The stable rule table: (id, name, short description). New rules get
   the next id; ids are never reused. *)
let rules =
  [
    ("OL001", "unreachable-block",
     "basic block unreachable from the program entry");
    ("OL002", "dead-flag-update",
     "comparison flags overwritten before any conditional branch reads them");
    ("OL003", "redundant-guard",
     "mem_guard provably redundant: the range fixpoint already covers the \
      guarded window");
    ("OL004", "secret-branch", "secret-dependent conditional or indirect branch");
    ("OL005", "secret-addr", "secret-dependent memory operand address");
    ("OL006", "secret-latency", "variable-latency instruction on secret data");
  ]

let rule_name rule =
  match List.find_opt (fun (id, _, _) -> id = rule) rules with
  | Some (_, name, _) -> name
  | None -> rule

let compare_findings a b =
  compare (a.addr, a.rule, a.message) (b.addr, b.rule, b.message)

let finding_to_string f =
  Printf.sprintf "%s %s(%s) @0x%x: %s [%s]"
    (severity_to_string f.severity)
    f.rule (rule_name f.rule) f.addr f.message f.insn

let of_taint (t : Taint.finding) =
  let rule =
    match t.kind with
    | Taint.Secret_branch -> "OL004"
    | Taint.Secret_addr -> "OL005"
    | Taint.Secret_latency -> "OL006"
  in
  { rule; addr = t.addr; insn = t.insn;
    message = Taint.kind_to_string t.kind; severity = Error }

(* --- cheap CFG lints ----------------------------------------------------- *)

(* OL001: blocks the recovered CFG cannot reach from the entry. The
   verifier accepts them (its Stage-4 seeds include every cfi_label);
   they are dead weight the toolchain left behind. One finding per
   block, anchored at its first unit. *)
let unreachable_blocks (cfg : Cfg.t) =
  let reach = Cfg.reachable cfg in
  Array.to_list cfg.blocks
  |> List.filter_map (fun (b : Cfg.block) ->
         if reach.(b.id) then None
         else
           let u = cfg.disasm.D.sorted.(b.first) in
           Some
             { rule = "OL001"; addr = b.addr; insn = U.to_string u.kind;
               message =
                 Printf.sprintf "block 0x%x..0x%x unreachable from the entry"
                   b.addr b.end_addr;
               severity = Warning })

(* OL002: a cmp whose flags are overwritten by a later cmp in the same
   block with no conditional branch in between — a dead store to the
   flag state. Jcc is the only flag reader in OASM, and flags cannot
   survive a block boundary usefully here because the second cmp
   post-dominates the first within the block. *)
let dead_flag_updates (cfg : Cfg.t) =
  let findings = ref [] in
  Array.iter
    (fun (b : Cfg.block) ->
      let pending = ref None in
      for i = b.first to b.last do
        let u = cfg.disasm.D.sorted.(i) in
        match u.kind with
        | U.U_insn (Insn.Cmp _) ->
            (match !pending with
            | Some (dead : U.unit_at) ->
                findings :=
                  { rule = "OL002"; addr = dead.addr;
                    insn = U.to_string dead.kind;
                    message =
                      Printf.sprintf
                        "flags overwritten at 0x%x before any branch reads \
                         them" u.addr;
                    severity = Note }
                  :: !findings
            | None -> ());
            pending := Some u
        | U.U_insn (Insn.Jcc _) -> pending := None
        | _ -> ()
      done)
    cfg.blocks;
  List.sort compare_findings !findings

(* --- emitters ------------------------------------------------------------ *)

let finding_json f =
  Printf.sprintf
    "{\"rule\":\"%s\",\"name\":\"%s\",\"severity\":\"%s\",\"addr\":%d,\
     \"insn\":\"%s\",\"message\":\"%s\"}"
    f.rule (rule_name f.rule)
    (severity_to_string f.severity)
    f.addr
    (Occlum_util.Json.escape f.insn)
    (Occlum_util.Json.escape f.message)

let to_json findings =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"findings\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (finding_json f))
    findings;
  Buffer.add_string b
    (Printf.sprintf "],\"count\":%d}" (List.length findings));
  Buffer.contents b

(* SARIF 2.1.0, the interchange shape CI archives. Physical locations
   are code offsets into the binary (uri = the input path); SARIF levels
   map error/warning/note directly. *)
let to_sarif ~uri findings =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
     \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
     \"name\":\"occlum_lint\",\"rules\":[";
  List.iteri
    (fun i (id, name, desc) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\":\"%s\",\"name\":\"%s\",\"shortDescription\":\
            {\"text\":\"%s\"}}"
           id name (Occlum_util.Json.escape desc)))
    rules;
  Buffer.add_string b "]}},\"results\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      let level =
        match f.severity with
        | Error -> "error"
        | Warning -> "warning"
        | Note -> "note"
      in
      Buffer.add_string b
        (Printf.sprintf
           "{\"ruleId\":\"%s\",\"level\":\"%s\",\"message\":{\"text\":\
            \"%s [%s]\"},\"locations\":[{\"physicalLocation\":\
            {\"artifactLocation\":{\"uri\":\"%s\"},\"region\":\
            {\"byteOffset\":%d}}}]}"
           f.rule level
           (Occlum_util.Json.escape f.message)
           (Occlum_util.Json.escape f.insn) (Occlum_util.Json.escape uri) f.addr))
    findings;
  Buffer.add_string b "]}]}";
  Buffer.contents b

let to_text findings =
  let b = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string b ("  " ^ finding_to_string f);
      Buffer.add_char b '\n')
    findings;
  Buffer.contents b
