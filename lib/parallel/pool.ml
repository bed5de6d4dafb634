(* Fixed-batch domain pool.

   The job set is known up front, so no work-stealing machinery is
   needed: the [jobs - 1] spawned domains and the calling domain race
   on one atomic cursor into the job array and write results by index
   (the cursor only picks who runs what; it never orders the output).
   Output order is therefore the input order regardless of how the
   domains interleave — the property the explore driver's
   byte-identical-report guarantee rests on.

   Jobs must not share mutable state (each sweep case owns a private
   engine and stats table) and must not print: collect, then report.

   [run] spawns and joins its domains per call, which is fine for sweep
   batches (milliseconds of work per job) but not for the shard
   coordinator, whose windows can be microseconds apart — that is what
   [Persistent] below is for. *)

let default_jobs () = Domain.recommended_domain_count ()

let run ?jobs (fs : (unit -> 'a) array) : 'a array =
  let n = Array.length fs in
  let jobs =
    match jobs with None -> default_jobs () | Some j -> max 1 j
  in
  let jobs = min jobs n in
  if n = 0 then [||]
  else if jobs <= 1 then Array.map (fun f -> f ()) fs
  else begin
    let results : ('a, exn * Printexc.raw_backtrace) result option array =
      Array.make n None
    in
    let cursor = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          (results.(i) <-
            Some
              (match fs.(i) () with
              | v -> Ok v
              | exception e -> Error (e, Printexc.get_raw_backtrace ())));
          loop ()
        end
      in
      loop ()
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    (* Re-raise the lowest-indexed failure so the error a parallel run
       reports is the same one the sequential run would have hit first. *)
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

let map ?jobs f items = run ?jobs (Array.map (fun x () -> f x) items)

let map_list ?jobs f items =
  Array.to_list (map ?jobs f (Array.of_list items))

(* Reusable pool: create the domains once, submit many rounds.  Workers
   park on a condition variable between rounds; a round bumps a
   generation counter under the mutex and broadcasts, each worker runs
   the round body with its own fixed slot, and the caller (slot 0)
   participates, then waits for the remaining count to hit zero.  The
   fixed slots are the point for the shard coordinator: shard [i] is
   always drained by slot [i mod workers], so a shard's effect
   continuations resume on the same domain in every window. *)
module Persistent = struct
  type t = {
    total : int;  (* participants: caller + spawned domains *)
    mutable domains : unit Domain.t array;
    m : Mutex.t;
    cv_start : Condition.t;
    cv_done : Condition.t;
    mutable gen : int;
    mutable job : (int -> unit) option;
    mutable remaining : int;
    mutable quit : bool;
    mutable errors : (int * exn * Printexc.raw_backtrace) list;
  }

  let worker t slot =
    let my_gen = ref 0 in
    let continue = ref true in
    while !continue do
      Mutex.lock t.m;
      while (not t.quit) && t.gen = !my_gen do
        Condition.wait t.cv_start t.m
      done;
      if t.quit then begin
        Mutex.unlock t.m;
        continue := false
      end
      else begin
        my_gen := t.gen;
        let job = Option.get t.job in
        Mutex.unlock t.m;
        (try job slot
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Mutex.lock t.m;
           t.errors <- (slot, e, bt) :: t.errors;
           Mutex.unlock t.m);
        Mutex.lock t.m;
        t.remaining <- t.remaining - 1;
        if t.remaining = 0 then Condition.broadcast t.cv_done;
        Mutex.unlock t.m
      end
    done

  let create ?workers () =
    let total =
      match workers with None -> default_jobs () | Some w -> max 1 w
    in
    let t =
      {
        total;
        domains = [||];
        m = Mutex.create ();
        cv_start = Condition.create ();
        cv_done = Condition.create ();
        gen = 0;
        job = None;
        remaining = 0;
        quit = false;
        errors = [];
      }
    in
    t.domains <-
      Array.init (total - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
    t

  let workers t = t.total

  let round t f =
    if t.quit then invalid_arg "Pool.Persistent.round: pool is shut down";
    if Array.length t.domains = 0 then f 0
    else begin
      Mutex.lock t.m;
      t.job <- Some f;
      t.errors <- [];
      t.remaining <- Array.length t.domains;
      t.gen <- t.gen + 1;
      Condition.broadcast t.cv_start;
      Mutex.unlock t.m;
      let caller_err =
        try
          f 0;
          None
        with e -> Some (0, e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock t.m;
      while t.remaining > 0 do
        Condition.wait t.cv_done t.m
      done;
      let errs = t.errors in
      t.job <- None;
      Mutex.unlock t.m;
      let errs =
        match caller_err with Some e -> e :: errs | None -> errs
      in
      match List.sort (fun (a, _, _) (b, _, _) -> compare a b) errs with
      | [] -> ()
      | (_, e, bt) :: _ -> Printexc.raise_with_backtrace e bt
    end

  let shutdown t =
    if not t.quit then begin
      Mutex.lock t.m;
      t.quit <- true;
      Condition.broadcast t.cv_start;
      Mutex.unlock t.m;
      Array.iter Domain.join t.domains;
      t.domains <- [||]
    end
end
