(* Guard audit: read the verifier's range fixpoint of a finished binary
   from its [Verify.accepted] and count how many mem_guards it proves
   redundant — the residue the optimizer left behind (guards it could
   not see across basic blocks, or binaries built with --naive-sfi).

   The redundancy criterion is the optimizer's own
   {!Occlum_range.Range_lattice.guard_redundant}: a guard on
   [base + disp] is redundant iff the in-state proves base+d in bounds
   for the whole 8-byte window [disp, disp+7]. Running it on the
   verifier's own fixpoint means the audit measures exactly what a
   smarter toolchain could still remove without changing the
   verifier. *)

module U = Occlum_verifier.Unit_kind
module L = Occlum_range.Range_lattice

type func_report = {
  name : string;
  guards : int;
  redundant : int;
}

type report = {
  guards_total : int;
  redundant_total : int;
  funcs : func_report list; (* sorted by name; only funcs with guards *)
  findings : Lint.finding list;
      (* one OL003 per redundant guard: exact address + decoded text *)
}

let audit accepted =
  let module V = Occlum_verifier.Verify in
  let d = V.disasm accepted and in_state = V.in_states accepted in
  (* function extents from the symbol table: a symbol owns [offset, next) *)
  let syms =
    List.sort (fun (_, a) (_, b) -> compare a b) (V.binary accepted).symbols
  in
  let func_of addr =
    let rec go last = function
      | (name, off) :: tl when off <= addr -> go (Some name) tl
      | _ -> last
    in
    go None syms
  in
  let tbl = Hashtbl.create 16 in
  let bump name redundant =
    let g, r = Option.value (Hashtbl.find_opt tbl name) ~default:(0, 0) in
    Hashtbl.replace tbl name (g + 1, if redundant then r + 1 else r)
  in
  let total = ref 0 and red = ref 0 in
  let findings = ref [] in
  Array.iteri
    (fun i (u : U.unit_at) ->
      match u.kind with
      | U.U_mem_guard m ->
          incr total;
          let func = Option.value (func_of u.addr) ~default:"<unknown>" in
          let redundant =
            match in_state.(i) with
            | Some s -> L.guard_redundant s m
            | None -> false
          in
          if redundant then begin
            incr red;
            findings :=
              { Lint.rule = "OL003"; addr = u.addr;
                insn = U.to_string u.kind;
                message =
                  Printf.sprintf
                    "redundant mem_guard in %s: the range fixpoint already \
                     covers the guarded window"
                    func;
                severity = Lint.Note }
              :: !findings
          end;
          bump func redundant
      | _ -> ())
    d.sorted;
  let funcs =
    Hashtbl.fold
      (fun name (guards, redundant) acc ->
        { name; guards; redundant } :: acc)
      tbl []
    |> List.sort (fun a b -> compare a.name b.name)
  in
  { guards_total = !total; redundant_total = !red; funcs;
    findings = List.sort Lint.compare_findings !findings }

let record registry (r : report) =
  let module M = Occlum_obs.Metrics in
  M.add (M.counter registry "guard_audit.guards_total") r.guards_total;
  M.add (M.counter registry "guard_audit.redundant_total") r.redundant_total

let to_json (r : report) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\"guards_total\":%d,\"redundant_total\":%d,\"funcs\":["
       r.guards_total r.redundant_total);
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"name\":\"%s\",\"guards\":%d,\"redundant\":%d}"
           (Occlum_util.Json.escape f.name) f.guards f.redundant))
    r.funcs;
  Buffer.add_string b "],\"findings\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Lint.finding_json f))
    r.findings;
  Buffer.add_string b "]}";
  Buffer.contents b

let to_text (r : report) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "guard audit: %d mem_guard(s), %d provably redundant\n"
       r.guards_total r.redundant_total);
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "  %-24s %4d guard(s), %4d redundant\n" f.name
           f.guards f.redundant))
    r.funcs;
  List.iter
    (fun f ->
      Buffer.add_string b ("  " ^ Lint.finding_to_string f);
      Buffer.add_char b '\n')
    r.findings;
  Buffer.contents b
