(* One round-robin run queue for every virtual core. See sched.mli for
   the model; every function here is called by the LibOS in a
   deterministic order. *)

type t = { ncores : int; rq : int Queue.t }

let create ~ncores =
  if ncores < 1 then invalid_arg "Sched.create: ncores < 1";
  { ncores; rq = Queue.create () }

let enqueue t pid = Queue.add pid t.rq

let queued t = List.of_seq (Queue.to_seq t.rq)

(* The claim pass: pop the front; a dead pid is dropped, a live one goes
   behind the tail — a claimed pid too, before it runs, so a child it
   spawns queues after it. [len + 1] pops at most, so a queue with
   nothing claimable ends rotated by one. *)
let claim t ~runnable ~live ~slot_of =
  let claims = ref [] and slots = ref [] and n = ref 0 in
  let ok pid =
    runnable pid
    && (not (List.exists (fun (_, q) -> q = pid) !claims))
    &&
    let s = slot_of pid in
    s < 0 || not (List.exists (fun x -> x = s) !slots)
  in
  let tries = ref (Queue.length t.rq + 1) in
  while !n < t.ncores && !tries > 0 && not (Queue.is_empty t.rq) do
    decr tries;
    let pid = Queue.take t.rq in
    if live pid then begin
      Queue.add pid t.rq;
      if ok pid then begin
        slots := slot_of pid :: !slots;
        claims := (!n, pid) :: !claims;
        incr n
      end
    end
  done;
  List.rev !claims
