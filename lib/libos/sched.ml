(* Per-vCPU run queues with deterministic work stealing. See sched.mli
   for the model; the invariant that matters is that every function here
   is called from the LibOS's own domain in a deterministic order — the
   worker domains of [Pool] only ever execute interpreter closures. *)

type core = {
  cid : int;
  mutable rq : int list;
  jit : Occlum_machine.Jit.t option;
      (* per-core code cache: compiled closures are mutable-state-free
         but the cache tables are not, so cores never share a [Jit.t] *)
  obs : Occlum_obs.Obs.t;
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

let create ~ncores ~decode_cache ~obs () =
  if ncores < 1 then invalid_arg "Sched.create: ncores < 1";
  {
    ncores;
    cores =
      Array.init ncores (fun cid ->
          {
            cid;
            rq = [];
            jit =
              (if decode_cache then Some (Occlum_machine.Jit.create ())
               else None);
            (* core 0's quanta always run on the calling domain
               ([Pool.run_all]), so only it may touch [obs]'s trace *)
            obs = (if cid = 0 then obs else Occlum_obs.Obs.disabled);
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

let push c pid = c.rq <- c.rq @ [ pid ]

let enqueue t pid =
  let c = t.cores.(home t pid) in
  push c pid;
  (* fresh work cancels any backoff: the core must notice it next epoch *)
  c.backoff <- 0;
  c.fail_streak <- 0

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

(* The owner's round-robin pick: pop the front; a dead pid is dropped, a
   live one goes behind the tail — the claimed pid too, before it runs,
   so a child it spawns queues after it. [len + 1] tries, so a queue with
   nothing claimable ends rotated by one. *)
let pick c ~live ~ok =
  let rec go tries =
    match c.rq with
    | pid :: rest when tries > 0 ->
        c.rq <- rest;
        if not (live pid) then go (tries - 1)
        else begin
          push c pid;
          if ok pid then Some pid else go (tries - 1)
        end
    | _ -> None
  in
  go (List.length c.rq + 1)

(* A thief scans the victim's queue from the back (the oldest work the
   owner would reach last); dead pids are dropped, skipped live ones
   keep their order. *)
let steal victim ~live ~ok =
  let rec scan kept = function
    | [] -> (None, kept)
    | pid :: tl ->
        if not (live pid) then scan kept tl
        else if ok pid then (Some pid, List.rev_append tl kept)
        else scan (pid :: kept) tl
  in
  let found, rq = scan [] (List.rev victim.rq) in
  victim.rq <- rq;
  found

let claim t ~runnable ~live ~slot_of =
  t.epochs <- t.epochs + 1;
  (* claimed pids stay queued, so a later core must skip them *)
  let claims = ref [] and claimed_slots = ref [] in
  let ok pid =
    runnable pid
    && (not (List.exists (fun (_, q) -> q = pid) !claims))
    &&
    let s = slot_of pid in
    s < 0 || not (List.mem s !claimed_slots)
  in
  let take i pid =
    t.cores.(i).fail_streak <- 0;
    claimed_slots := slot_of pid :: !claimed_slots;
    claims := (i, pid) :: !claims
  in
  for i = 0 to t.ncores - 1 do
    let c = t.cores.(i) in
    match pick c ~live ~ok with
    | Some pid -> take i pid
    | None ->
        if c.backoff > 0 then c.backoff <- c.backoff - 1
        else begin
          (* steal round: victims in deterministic order; the stolen SIP
             migrates to the thief's queue — locality follows the work *)
          let stolen = ref None in
          let v = ref 1 in
          while !stolen = None && !v < t.ncores do
            stolen := steal t.cores.((i + !v) mod t.ncores) ~live ~ok;
            incr v
          done;
          match !stolen with
          | Some pid ->
              push c pid;
              c.steals <- c.steals + 1;
              take i pid
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
    let add name d =
      if d > 0 then
        Occlum_obs.Metrics.add
          (Occlum_obs.Metrics.counter obs.Occlum_obs.Obs.metrics name)
          d
    in
    let steals = steals_total t in
    add "sched.epochs" (t.epochs - t.merged_epochs);
    add "sched.steals" (steals - t.merged_steals);
    add "sched.cross_wakes" (t.cross_wakes - t.merged_wakes);
    t.merged_epochs <- t.epochs;
    t.merged_steals <- steals;
    t.merged_wakes <- t.cross_wakes
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
