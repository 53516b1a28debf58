(* The observability switchboard: per-class flags precomputed at
   creation so every emission site is `if obs.t_x then ...` — one branch
   when disabled, and no behavioural coupling with the simulation. *)

type cls =
  | Quantum
  | Syscall
  | Sched
  | Lifecycle
  | Aex
  | Page
  | Jit
  | Sefs
  | Net
  | Cluster

let all_classes =
  [ Quantum; Syscall; Sched; Lifecycle; Aex; Page; Jit; Sefs; Net; Cluster ]

let cls_name = function
  | Quantum -> "quantum"
  | Syscall -> "syscall"
  | Sched -> "sched"
  | Lifecycle -> "lifecycle"
  | Aex -> "aex"
  | Page -> "page"
  | Jit -> "jit"
  | Sefs -> "sefs"
  | Net -> "net"
  | Cluster -> "cluster"

let cls_of_string = function
  | "quantum" -> Some Quantum
  | "syscall" -> Some Syscall
  | "sched" -> Some Sched
  | "lifecycle" -> Some Lifecycle
  | "aex" -> Some Aex
  | "page" -> Some Page
  | "jit" -> Some Jit
  | "sefs" -> Some Sefs
  | "net" -> Some Net
  | "cluster" -> Some Cluster
  | _ -> None

let classes_of_string s =
  if s = "all" || s = "" then Ok all_classes
  else
    let names = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: tl -> (
          match cls_of_string (String.trim n) with
          | Some c -> go (c :: acc) tl
          | None ->
              Error
                (Printf.sprintf
                   "unknown event class %S (expected all|%s, comma-separated)" n
                   (String.concat "|" (List.map cls_name all_classes))))
    in
    go [] names

type t = {
  enabled : bool;
  trace : Trace.t;
  metrics : Metrics.registry;
  mutable now : unit -> int64;
  t_quantum : bool;
  t_syscall : bool;
  t_sched : bool;
  t_life : bool;
  t_aex : bool;
  t_page : bool;
  t_jit : bool;
  t_sefs : bool;
  t_net : bool;
  t_cluster : bool;
}

let disabled =
  {
    enabled = false;
    trace = Trace.create ~capacity:0 ();
    metrics = Metrics.create ();
    now = (fun () -> 0L);
    t_quantum = false;
    t_syscall = false;
    t_sched = false;
    t_life = false;
    t_aex = false;
    t_page = false;
    t_jit = false;
    t_sefs = false;
    t_net = false;
    t_cluster = false;
  }

let create ?(capacity = 65536) ?(events = all_classes) () =
  let on c = List.mem c events in
  {
    enabled = true;
    trace = Trace.create ~capacity ();
    metrics = Metrics.create ();
    now = (fun () -> 0L);
    t_quantum = on Quantum;
    t_syscall = on Syscall;
    t_sched = on Sched;
    t_life = on Lifecycle;
    t_aex = on Aex;
    t_page = on Page;
    t_jit = on Jit;
    t_sefs = on Sefs;
    t_net = on Net;
    t_cluster = on Cluster;
  }

let emit t kind = Trace.emit t.trace ~ts:(t.now ()) kind
let emit_at t ~ts kind = Trace.emit t.trace ~ts kind

let report t =
  Metrics.to_text t.metrics ^ Trace.summary t.trace ^ "\n"
