(* One round-robin run queue for every virtual core. See sched.mli for
   the model; every function here is called by the LibOS in a
   deterministic order. *)

type 'a t = { ncores : int; rq : 'a Queue.t }

let create ~ncores =
  if ncores < 1 then invalid_arg "Sched.create: ncores < 1";
  { ncores; rq = Queue.create () }

let enqueue t x = Queue.add x t.rq

let queued t = List.of_seq (Queue.to_seq t.rq)

(* Whether [x] is already in [claims], or a claim shares its slot [s]
   (a negative slot shares with nothing). *)
let rec clashes ~slot_of x s = function
  | [] -> false
  | c :: rest ->
      c == x || (s >= 0 && slot_of c = s) || clashes ~slot_of x s rest

(* The claim pass: pop the front; a dead entry is dropped, a live one
   goes behind the tail — a claimed one too, before it runs, so a child
   it spawns queues after it. [len + 1] pops at most, so a queue with
   nothing claimable ends rotated by one. *)
let claim t ~runnable ~live ~slot_of =
  let claims = ref [] and n = ref 0 in
  let tries = ref (Queue.length t.rq + 1) in
  while !n < t.ncores && !tries > 0 && not (Queue.is_empty t.rq) do
    decr tries;
    let x = Queue.take t.rq in
    if live x then begin
      Queue.add x t.rq;
      if runnable x && not (clashes ~slot_of x (slot_of x) !claims) then begin
        claims := x :: !claims;
        incr n
      end
    end
  done;
  List.rev !claims
