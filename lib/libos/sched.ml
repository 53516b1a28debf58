(* Per-vCPU run queues with deterministic work stealing. See sched.mli
   for the model; the invariant that matters is that every function here
   is called from the LibOS's own domain in a deterministic order — the
   worker domains of [Pool] only ever execute interpreter closures. *)

type core = {
  cid : int;
  mutable rq : int list;
  dcache : Occlum_machine.Decode_cache.t option;
  jit : Occlum_machine.Jit.t option;
      (* per-core code cache: compiled closures are mutable-state-free
         but the cache tables are not, so cores never share a [Jit.t] *)
  shard : Occlum_obs.Obs.t;
  mutable backoff : int;
  mutable fail_streak : int;
  mutable steals : int;
  mutable quanta : int;
  mutable insns : int;
  mutable cycles : int;
}

type t = {
  ncores : int;
  cores : core array;
  mutable epochs : int;
  mutable cross_wakes : int;
  mutable merged_epochs : int;
  mutable merged_steals : int;
  mutable merged_wakes : int;
}

let max_backoff = 16

let create ~ncores ~decode_cache ~jit ~obs () =
  if ncores < 1 then invalid_arg "Sched.create: ncores < 1";
  {
    ncores;
    cores =
      Array.init ncores (fun cid ->
          {
            cid;
            rq = [];
            dcache =
              (if decode_cache then Some (Occlum_machine.Decode_cache.create ())
               else None);
            jit =
              (if jit && decode_cache then Some (Occlum_machine.Jit.create ())
               else None);
            shard = Occlum_obs.Obs.shard obs;
            backoff = 0;
            fail_streak = 0;
            steals = 0;
            quanta = 0;
            insns = 0;
            cycles = 0;
          });
    epochs = 0;
    cross_wakes = 0;
    merged_epochs = 0;
    merged_steals = 0;
    merged_wakes = 0;
  }

let home t pid = pid mod t.ncores

let enqueue t pid =
  let c = t.cores.(home t pid) in
  c.rq <- c.rq @ [ pid ];
  (* fresh work cancels any backoff: the core must notice it next epoch *)
  c.backoff <- 0;
  c.fail_streak <- 0

let requeue t ~core pid = t.cores.(core).rq <- t.cores.(core).rq @ [ pid ]

let core_of t pid =
  let rec find i =
    if i >= t.ncores then None
    else if List.mem pid t.cores.(i).rq then Some i
    else find (i + 1)
  in
  find 0

let notify_wake t ~waker pid =
  match core_of t pid with
  | None -> ()
  | Some holder ->
      let c = t.cores.(holder) in
      c.backoff <- 0;
      c.fail_streak <- 0;
      if holder <> waker then t.cross_wakes <- t.cross_wakes + 1

(* Scan [q] front-to-back for the first claimable pid; dead pids are
   dropped, unclaimable live ones keep their relative order. *)
let rec scan ~runnable ~live ~claimable kept = function
  | [] -> (None, List.rev kept)
  | pid :: tl ->
      if not (live pid) then scan ~runnable ~live ~claimable kept tl
      else if runnable pid && claimable pid then
        (Some pid, List.rev_append kept tl)
      else scan ~runnable ~live ~claimable (pid :: kept) tl

let claim t ~runnable ~live ~slot_of =
  t.epochs <- t.epochs + 1;
  let claimed_slots = ref [] in
  let claimable pid =
    let s = slot_of pid in
    s < 0 || not (List.mem s !claimed_slots)
  in
  let note pid = claimed_slots := slot_of pid :: !claimed_slots in
  let claims = ref [] in
  for i = 0 to t.ncores - 1 do
    let c = t.cores.(i) in
    match scan ~runnable ~live ~claimable [] c.rq with
    | Some pid, rest ->
        c.rq <- rest;
        c.fail_streak <- 0;
        note pid;
        claims := (i, pid) :: !claims
    | None, rest ->
        c.rq <- rest;
        if c.backoff > 0 then c.backoff <- c.backoff - 1
        else begin
          (* steal round: victims in deterministic order, from the back
             of their queue (the oldest work the owner would reach last) *)
          let stolen = ref None in
          let v = ref 1 in
          while !stolen = None && !v < t.ncores do
            let victim = t.cores.((i + !v) mod t.ncores) in
            (match scan ~runnable ~live ~claimable [] (List.rev victim.rq) with
            | Some pid, rest_rev ->
                victim.rq <- List.rev rest_rev;
                stolen := Some pid
            | None, rest_rev -> victim.rq <- List.rev rest_rev);
            incr v
          done;
          match !stolen with
          | Some pid ->
              c.steals <- c.steals + 1;
              c.fail_streak <- 0;
              note pid;
              claims := (i, pid) :: !claims
          | None ->
              (* empty-handed: back off exponentially so idle cores stop
                 rescanning every victim each epoch *)
              c.fail_streak <- c.fail_streak + 1;
              c.backoff <- min max_backoff (1 lsl min 8 (c.fail_streak - 1))
        end
  done;
  List.rev !claims

let steals_total t = Array.fold_left (fun a c -> a + c.steals) 0 t.cores

let merge_metrics t (obs : Occlum_obs.Obs.t) =
  if obs.Occlum_obs.Obs.enabled then begin
    let module M = Occlum_obs.Metrics in
    Array.iter
      (fun c ->
        M.drain_into ~src:c.shard.Occlum_obs.Obs.metrics
          ~dst:obs.Occlum_obs.Obs.metrics)
      t.cores;
    let delta name cur seen =
      let d = cur - !seen in
      if d > 0 then M.add (M.counter obs.Occlum_obs.Obs.metrics name) d;
      seen := cur
    in
    let me = ref t.merged_epochs
    and ms = ref t.merged_steals
    and mw = ref t.merged_wakes in
    delta "sched.mc.epochs" t.epochs me;
    delta "sched.mc.steals" (steals_total t) ms;
    delta "sched.mc.cross_wakes" t.cross_wakes mw;
    t.merged_epochs <- !me;
    t.merged_steals <- !ms;
    t.merged_wakes <- !mw
  end

(* --- the vCPU worker pool ------------------------------------------------- *)

module Pool = struct
  type worker = {
    m : Mutex.t;
    cv : Condition.t;
    mutable job : (unit -> unit) option;
    mutable idle : bool;
    mutable stop : bool;
    mutable err : exn option;
    mutable dom : unit Domain.t option;
  }

  type pool = { workers : worker array }

  let worker_loop w =
    let running = ref true in
    while !running do
      Mutex.lock w.m;
      while w.job = None && not w.stop do
        Condition.wait w.cv w.m
      done;
      match w.job with
      | None ->
          (* stop requested with no pending job *)
          running := false;
          Mutex.unlock w.m
      | Some f ->
          Mutex.unlock w.m;
          (try f () with e -> w.err <- Some e);
          Mutex.lock w.m;
          w.job <- None;
          w.idle <- true;
          Condition.broadcast w.cv;
          Mutex.unlock w.m
    done

  let create n =
    let workers =
      Array.init (max 0 n) (fun _ ->
          {
            m = Mutex.create ();
            cv = Condition.create ();
            job = None;
            idle = true;
            stop = false;
            err = None;
            dom = None;
          })
    in
    Array.iter (fun w -> w.dom <- Some (Domain.spawn (fun () -> worker_loop w))) workers;
    { workers }

  let submit w f =
    Mutex.lock w.m;
    w.job <- Some f;
    w.idle <- false;
    Condition.broadcast w.cv;
    Mutex.unlock w.m

  let await w =
    Mutex.lock w.m;
    while not w.idle do
      Condition.wait w.cv w.m
    done;
    Mutex.unlock w.m

  let run_all pool jobs =
    let n = Array.length jobs in
    if n > 0 then begin
      let nw = Array.length pool.workers in
      let offloaded = min (n - 1) nw in
      for k = 1 to offloaded do
        submit pool.workers.(k - 1) jobs.(k)
      done;
      (* the calling domain is vCPU 0, plus any overflow past the pool *)
      jobs.(0) ();
      for k = offloaded + 1 to n - 1 do
        jobs.(k) ()
      done;
      for k = 1 to offloaded do
        await pool.workers.(k - 1)
      done;
      Array.iter
        (fun w ->
          match w.err with
          | Some e ->
              w.err <- None;
              raise e
          | None -> ())
        pool.workers
    end

  let shutdown pool =
    Array.iter
      (fun w ->
        Mutex.lock w.m;
        w.stop <- true;
        Condition.broadcast w.cv;
        Mutex.unlock w.m)
      pool.workers;
    Array.iter
      (fun w ->
        match w.dom with
        | Some d ->
            Domain.join d;
            w.dom <- None
        | None -> ())
      pool.workers
end
