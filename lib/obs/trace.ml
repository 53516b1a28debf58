(* Typed events in a bounded ring. Emission is two array writes and a
   couple of integer updates; the ring overwrites its oldest entry when
   full so a long run with tracing enabled stays at fixed memory. *)

type kind =
  | Quantum_start of { pid : int }
  | Quantum_end of { pid : int; insns : int; cycles : int }
  | Syscall_enter of { pid : int; nr : int }
  | Syscall_exit of {
      pid : int;
      nr : int;
      ret : int64;
      latency_ns : int64;
      blocked : bool;
    }
  | Aex of { enclave : int; reason : string }
  | Resume of { enclave : int }
  | Page_map of { enclave : int; addr : int; len : int }
  | Page_unmap of { enclave : int; addr : int; len : int }
  | Page_evict of { enclave : int; page : int }
  | Page_reload of { enclave : int; page : int }
  | Enclave_create of { enclave : int; size : int }
  | Enclave_init of { enclave : int }
  | Enclave_destroy of { enclave : int }
  | Jit_compile of { pc : int }
  | Jit_hit of { pc : int }
  | Jit_invalidate of { pc : int }
  | Jit_deopt of { pc : int }
  | Sefs_read of { bytes : int }
  | Sefs_write of { bytes : int }
  | Net_send of { bytes : int }
  | Net_recv of { bytes : int }
  | Spawn of { pid : int; parent : int; path : string }
  | Exit of { pid : int; code : int }
  | Sched_switch of { from_pid : int; to_pid : int }
  | Quote_issue of { enclave : int }
  | Chan_attest of { a : int; b : int }
  | Chan_open of { a : int; b : int }
  | Chan_msg of { a : int; b : int; seq : int; bytes : int }
  | Chan_retry of { a : int; b : int; seq : int }
  | Chan_fault of { a : int; b : int; kind : string }
  | Chan_close of { a : int; b : int }
  | Failover of { failed : int; target : int }

let kind_name = function
  | Quantum_start _ -> "quantum_start"
  | Quantum_end _ -> "quantum_end"
  | Syscall_enter _ -> "syscall_enter"
  | Syscall_exit _ -> "syscall_exit"
  | Aex _ -> "aex"
  | Resume _ -> "resume"
  | Page_map _ -> "page_map"
  | Page_unmap _ -> "page_unmap"
  | Page_evict _ -> "page_evict"
  | Page_reload _ -> "page_reload"
  | Enclave_create _ -> "enclave_create"
  | Enclave_init _ -> "enclave_init"
  | Enclave_destroy _ -> "enclave_destroy"
  | Jit_compile _ -> "jit_compile"
  | Jit_hit _ -> "jit_hit"
  | Jit_invalidate _ -> "jit_invalidate"
  | Jit_deopt _ -> "jit_deopt"
  | Sefs_read _ -> "sefs_read"
  | Sefs_write _ -> "sefs_write"
  | Net_send _ -> "net_send"
  | Net_recv _ -> "net_recv"
  | Spawn _ -> "spawn"
  | Exit _ -> "exit"
  | Sched_switch _ -> "sched_switch"
  | Quote_issue _ -> "quote_issue"
  | Chan_attest _ -> "chan_attest"
  | Chan_open _ -> "chan_open"
  | Chan_msg _ -> "chan_msg"
  | Chan_retry _ -> "chan_retry"
  | Chan_fault _ -> "chan_fault"
  | Chan_close _ -> "chan_close"
  | Failover _ -> "failover"

type event = { ts : int64; kind : kind }

type t = {
  cap : int;
  buf : event array;
  mutable head : int; (* next write position *)
  mutable len : int;
  mutable dropped : int;
  mutable total : int;
}

let dummy = { ts = 0L; kind = Resume { enclave = 0 } }

let create ~capacity () =
  if capacity < 0 then invalid_arg "Trace.create: negative capacity";
  { cap = capacity; buf = Array.make (max capacity 1) dummy;
    head = 0; len = 0; dropped = 0; total = 0 }

let emit t ~ts kind =
  t.total <- t.total + 1;
  if t.cap = 0 then t.dropped <- t.dropped + 1
  else begin
    t.buf.(t.head) <- { ts; kind };
    t.head <- (t.head + 1) mod t.cap;
    if t.len = t.cap then t.dropped <- t.dropped + 1 else t.len <- t.len + 1
  end

let length t = t.len
let total t = t.total
let dropped t = t.dropped

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0;
  t.total <- 0

let events t =
  let start = (t.head - t.len + t.cap) mod max t.cap 1 in
  List.init t.len (fun i -> t.buf.((start + i) mod t.cap))

(* --- Chrome trace_event export ------------------------------------------- *)

(* One trace_event record. [ph] "B"/"E" bracket durations on a track
   ([tid]); "i" is an instant. Timestamps are microseconds (float). *)
let chrome_record buf ~first ~name ~cat ~ph ~ts ~tid ~args =
  if not first then Buffer.add_string buf ",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":%d"
       (Occlum_util.Json.escape name) cat ph
       (Int64.to_float ts /. 1e3)
       tid);
  (match ph with
  | "i" -> Buffer.add_string buf ",\"s\":\"t\""
  | _ -> ());
  (match args with
  | [] -> ()
  | args ->
      Buffer.add_string buf ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":%s" (Occlum_util.Json.escape k) v))
        args;
      Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let str s = "\"" ^ Occlum_util.Json.escape s ^ "\""

let to_chrome_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  let first = ref true in
  let put ~name ~cat ~ph ~ts ~tid ~args =
    chrome_record buf ~first:!first ~name ~cat ~ph ~ts ~tid ~args;
    first := false
  in
  List.iter
    (fun { ts; kind } ->
      match kind with
      | Quantum_start { pid } ->
          put ~name:"quantum" ~cat:"quantum" ~ph:"B" ~ts ~tid:pid ~args:[]
      | Quantum_end { pid; insns; cycles } ->
          put ~name:"quantum" ~cat:"quantum" ~ph:"E" ~ts ~tid:pid
            ~args:[ ("insns", string_of_int insns);
                    ("cycles", string_of_int cycles) ]
      | Syscall_enter { pid; nr } ->
          put ~name:"syscall" ~cat:"syscall" ~ph:"B" ~ts ~tid:pid
            ~args:[ ("nr", string_of_int nr) ]
      | Syscall_exit { pid; nr; ret; latency_ns; blocked } ->
          put ~name:"syscall" ~cat:"syscall" ~ph:"E" ~ts ~tid:pid
            ~args:
              [ ("nr", string_of_int nr);
                ("ret", Printf.sprintf "%Ld" ret);
                ("latency_ns", Printf.sprintf "%Ld" latency_ns);
                ("blocked", if blocked then "true" else "false") ]
      | Aex { enclave; reason } ->
          put ~name:"aex" ~cat:"sgx" ~ph:"i" ~ts ~tid:0
            ~args:[ ("enclave", string_of_int enclave); ("reason", str reason) ]
      | Resume { enclave } ->
          put ~name:"resume" ~cat:"sgx" ~ph:"i" ~ts ~tid:0
            ~args:[ ("enclave", string_of_int enclave) ]
      | Page_map { enclave; addr; len } ->
          put ~name:"page_map" ~cat:"sgx" ~ph:"i" ~ts ~tid:0
            ~args:
              [ ("enclave", string_of_int enclave);
                ("addr", string_of_int addr); ("len", string_of_int len) ]
      | Page_unmap { enclave; addr; len } ->
          put ~name:"page_unmap" ~cat:"sgx" ~ph:"i" ~ts ~tid:0
            ~args:
              [ ("enclave", string_of_int enclave);
                ("addr", string_of_int addr); ("len", string_of_int len) ]
      | Page_evict { enclave; page } ->
          put ~name:"page_evict" ~cat:"sgx" ~ph:"i" ~ts ~tid:0
            ~args:
              [ ("enclave", string_of_int enclave);
                ("page", string_of_int page) ]
      | Page_reload { enclave; page } ->
          put ~name:"page_reload" ~cat:"sgx" ~ph:"i" ~ts ~tid:0
            ~args:
              [ ("enclave", string_of_int enclave);
                ("page", string_of_int page) ]
      | Enclave_create { enclave; size } ->
          put ~name:"enclave_create" ~cat:"sgx" ~ph:"i" ~ts ~tid:0
            ~args:[ ("enclave", string_of_int enclave);
                    ("size", string_of_int size) ]
      | Enclave_init { enclave } ->
          put ~name:"enclave_init" ~cat:"sgx" ~ph:"i" ~ts ~tid:0
            ~args:[ ("enclave", string_of_int enclave) ]
      | Enclave_destroy { enclave } ->
          put ~name:"enclave_destroy" ~cat:"sgx" ~ph:"i" ~ts ~tid:0
            ~args:[ ("enclave", string_of_int enclave) ]
      | Jit_compile { pc } ->
          put ~name:"jit_compile" ~cat:"jit" ~ph:"i" ~ts ~tid:0
            ~args:[ ("pc", string_of_int pc) ]
      | Jit_hit { pc } ->
          put ~name:"jit_hit" ~cat:"jit" ~ph:"i" ~ts ~tid:0
            ~args:[ ("pc", string_of_int pc) ]
      | Jit_invalidate { pc } ->
          put ~name:"jit_invalidate" ~cat:"jit" ~ph:"i" ~ts ~tid:0
            ~args:[ ("pc", string_of_int pc) ]
      | Jit_deopt { pc } ->
          put ~name:"jit_deopt" ~cat:"jit" ~ph:"i" ~ts ~tid:0
            ~args:[ ("pc", string_of_int pc) ]
      | Sefs_read { bytes } ->
          put ~name:"sefs_read" ~cat:"sefs" ~ph:"i" ~ts ~tid:0
            ~args:[ ("bytes", string_of_int bytes) ]
      | Sefs_write { bytes } ->
          put ~name:"sefs_write" ~cat:"sefs" ~ph:"i" ~ts ~tid:0
            ~args:[ ("bytes", string_of_int bytes) ]
      | Net_send { bytes } ->
          put ~name:"net_send" ~cat:"net" ~ph:"i" ~ts ~tid:0
            ~args:[ ("bytes", string_of_int bytes) ]
      | Net_recv { bytes } ->
          put ~name:"net_recv" ~cat:"net" ~ph:"i" ~ts ~tid:0
            ~args:[ ("bytes", string_of_int bytes) ]
      | Spawn { pid; parent; path } ->
          put ~name:"spawn" ~cat:"lifecycle" ~ph:"i" ~ts ~tid:pid
            ~args:[ ("parent", string_of_int parent); ("path", str path) ]
      | Exit { pid; code } ->
          put ~name:"exit" ~cat:"lifecycle" ~ph:"i" ~ts ~tid:pid
            ~args:[ ("code", string_of_int code) ]
      | Sched_switch { from_pid; to_pid } ->
          put ~name:"sched_switch" ~cat:"sched" ~ph:"i" ~ts ~tid:to_pid
            ~args:[ ("from", string_of_int from_pid);
                    ("to", string_of_int to_pid) ]
      | Quote_issue { enclave } ->
          put ~name:"quote_issue" ~cat:"cluster" ~ph:"i" ~ts ~tid:0
            ~args:[ ("enclave", string_of_int enclave) ]
      | Chan_attest { a; b } ->
          put ~name:"chan_attest" ~cat:"cluster" ~ph:"i" ~ts ~tid:0
            ~args:[ ("a", string_of_int a); ("b", string_of_int b) ]
      | Chan_open { a; b } ->
          put ~name:"chan_open" ~cat:"cluster" ~ph:"i" ~ts ~tid:0
            ~args:[ ("a", string_of_int a); ("b", string_of_int b) ]
      | Chan_msg { a; b; seq; bytes } ->
          put ~name:"chan_msg" ~cat:"cluster" ~ph:"i" ~ts ~tid:0
            ~args:
              [ ("a", string_of_int a); ("b", string_of_int b);
                ("seq", string_of_int seq); ("bytes", string_of_int bytes) ]
      | Chan_retry { a; b; seq } ->
          put ~name:"chan_retry" ~cat:"cluster" ~ph:"i" ~ts ~tid:0
            ~args:
              [ ("a", string_of_int a); ("b", string_of_int b);
                ("seq", string_of_int seq) ]
      | Chan_fault { a; b; kind } ->
          put ~name:"chan_fault" ~cat:"cluster" ~ph:"i" ~ts ~tid:0
            ~args:
              [ ("a", string_of_int a); ("b", string_of_int b);
                ("kind", str kind) ]
      | Chan_close { a; b } ->
          put ~name:"chan_close" ~cat:"cluster" ~ph:"i" ~ts ~tid:0
            ~args:[ ("a", string_of_int a); ("b", string_of_int b) ]
      | Failover { failed; target } ->
          put ~name:"failover" ~cat:"cluster" ~ph:"i" ~ts ~tid:0
            ~args:[ ("failed", string_of_int failed);
                    ("target", string_of_int target) ])
    (events t);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let summary t =
  let counts = Hashtbl.create 24 in
  List.iter
    (fun { kind; _ } ->
      let k = kind_name kind in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    (events t);
  let lines =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (k, v) -> Printf.sprintf "  %-20s %d" k v)
  in
  Printf.sprintf "trace: %d events in ring (%d emitted, %d dropped)\n%s"
    t.len t.total t.dropped
    (String.concat "\n" lines)
