(* occlum_cluster: boot N single-enclave Occlum instances, attest them
   pairwise into a mesh of encrypted channels, run deterministic sharded
   KV traffic across the cluster, and print per-channel retry/handshake
   stats (the cluster analogue of occlum_run's paging-stats footer).

     occlum_cluster                          # 3 nodes, 48 ops
     occlum_cluster -n 4 --ops 200 --seed 9
     occlum_cluster --fault drop --fault-at 5 --fault-times 3
     occlum_cluster --kill 1                 # crash node 1 mid-run,
                                             # revive at 3/4 (failback)

   Everything is driven by the virtual clock and a seed-threaded PRNG,
   so a given command line is bit-reproducible. *)

open Cmdliner
module Cluster = Occlum_cluster.Cluster
module Channel = Occlum_cluster.Channel
module Ht = Occlum_libos.Host_transport
module Inject = Occlum_fuzzing.Inject
module Rng = Occlum_fuzzing.Rng

let fault_of_string = function
  | "drop" -> Some Ht.Drop
  | "duplicate" -> Some Ht.Duplicate
  | "reorder" -> Some Ht.Reorder
  | "corrupt" -> Some (Ht.Corrupt 13)
  | _ -> None

(* first alive node scanning upward from [v]: keeps the traffic's entry
   point valid across --kill *)
let pick_via cl v =
  let n = Cluster.size cl in
  let rec go i =
    if i = n then failwith "no alive node"
    else
      let c = (v + i) mod n in
      if Cluster.alive cl c then c else go (i + 1)
  in
  go 0

let run nodes ops seed fault fault_at fault_times kill digest =
  if nodes < 1 || nodes > 8 then (
    prerr_endline "occlum_cluster: --nodes must be in 1..8";
    exit 2);
  let fault =
    match fault with
    | "none" -> None
    | s -> (
        match fault_of_string s with
        | Some f -> Some f
        | None ->
            prerr_endline
              "occlum_cluster: --fault must be none, drop, duplicate, \
               reorder or corrupt";
            exit 2)
  in
  Occlum_sgx.Attestation.reset_nonce_cache ();
  let cl = Cluster.create ~nodes () in
  let inj = Inject.make () in
  Fun.protect ~finally:(fun () -> Cluster.destroy cl) @@ fun () ->
  Printf.printf "cluster: %d node%s attested and meshed (%d handshakes)\n"
    nodes
    (if nodes = 1 then "" else "s")
    (Cluster.handshakes cl);
  (* the rest of the run happens under the armed fault, if any *)
  let armed body =
    match fault with
    | None -> body ()
    | Some f ->
        Inject.arm_channel inj (Cluster.transport cl) ~times:fault_times
          ~at:fault_at ~fault:f (fun () ->
            Printf.printf
              "host fault armed: frame %d onward (%d frame%s) while the \
               channels absorb or fail closed\n"
              fault_at fault_times
              (if fault_times = 1 then "" else "s");
            body ())
  in
  armed @@ fun () ->
  let rng = Rng.of_seed seed in
  let puts = ref 0 and gets = ref 0 and misses = ref 0 and failed = ref 0 in
  for i = 0 to ops - 1 do
    (match kill with
    | Some k when i = ops / 2 && Cluster.alive cl k && Cluster.alive_count cl > 1
      ->
        Cluster.kill_node cl k;
        Printf.printf "node %d killed at op %d (shards fail over)\n" k i
    | Some k when i = 3 * ops / 4 && not (Cluster.alive cl k) ->
        Cluster.revive cl k;
        Printf.printf "node %d revived at op %d (shards fail back)\n" k i
    | _ -> ());
    let via = pick_via cl (Rng.int rng nodes) in
    let key = Printf.sprintf "k%d" (Rng.int rng (max 1 (ops / 2))) in
    if Rng.chance rng 2 3 then begin
      incr puts;
      if not (Cluster.kv_put cl ~via key (Printf.sprintf "v%d@%d" i via))
      then incr failed
    end
    else begin
      incr gets;
      match Cluster.kv_get cl ~via key with
      | Some _ -> ()
      | None -> incr misses
    end
  done;
  Printf.printf
    "---\n\
     %d ops (%d put / %d get, %d misses); %d rpcs, %d rpc failures, %d \
     failovers, %d injected faults\n"
    ops !puts !gets !misses (Cluster.rpcs cl)
    (Cluster.rpc_failures cl) (Cluster.failovers cl) inj.Inject.chan;
  List.iter
    (fun (s : Cluster.chan_stats) ->
      Printf.printf
        "channel %d<->%d epoch %d %-6s %4d sent / %4d recvd, %d retries, \
         %d dups, %d mac failures\n"
        s.Cluster.cs_a s.Cluster.cs_b s.Cluster.cs_epoch s.Cluster.cs_state
        s.Cluster.cs_sent s.Cluster.cs_received s.Cluster.cs_retries
        s.Cluster.cs_duplicates s.Cluster.cs_mac_failures)
    (Cluster.chan_stats cl);
  List.iter
    (fun i ->
      if Cluster.alive cl i then
        Printf.printf "node %d: vclock %Ld us\n" i
          (Int64.div (Cluster.node_clock cl i) 1000L))
    (List.init nodes Fun.id);
  if digest then Printf.printf "kv digest: %s\n" (Cluster.kv_digest cl);
  if !failed > 0 then begin
    Printf.printf "ERROR: %d puts failed outright\n" !failed;
    exit 1
  end

let nodes_arg =
  Arg.(value & opt int 3 & info [ "n"; "nodes" ]
         ~doc:"Cluster size (1..8): one enclave instance per node, full \
               mesh of attested channels.")

let ops_arg =
  Arg.(value & opt int 48 & info [ "ops" ]
         ~doc:"KV operations to run (2:1 put:get mix over a shared key \
               space, routed through random alive nodes).")

let seed_arg =
  Arg.(value & opt int64 7L & info [ "seed" ]
         ~doc:"PRNG seed for the traffic mix; a fixed seed makes the run \
               bit-reproducible.")

let fault_arg =
  Arg.(value & opt string "none" & info [ "fault" ]
         ~doc:"Host transport fault to inject: none, drop, duplicate, \
               reorder or corrupt. The untrusted host applies it; the \
               channels absorb it or fail closed.")

let fault_at_arg =
  Arg.(value & opt int 3 & info [ "fault-at" ]
         ~doc:"First transported frame the fault applies to (1-based).")

let fault_times_arg =
  Arg.(value & opt int 1 & info [ "fault-times" ]
         ~doc:"How many consecutive frames the fault applies to.")

let kill_arg =
  Arg.(value & opt (some int) None & info [ "kill" ]
         ~doc:"Crash this node halfway through the run (its shards fail \
               over) and revive it at the 3/4 mark (they fail back).")

let digest_arg =
  Arg.(value & flag & info [ "digest" ]
         ~doc:"Print the cluster-level KV digest (sha256 over the sorted \
               union of every alive node's /kv tree).")

let cmd =
  Cmd.v
    (Cmd.info "occlum_cluster"
       ~doc:"Boot an attested enclave cluster and run sharded KV traffic")
    Term.(const run $ nodes_arg $ ops_arg $ seed_arg $ fault_arg
          $ fault_at_arg $ fault_times_arg $ kill_arg $ digest_arg)

let () = exit (Cmd.eval cmd)
