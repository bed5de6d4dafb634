(* The host-time ladder: nanoseconds of host CPU per iteration for the
   rungs of the allocation ladder that matter to a LYNX operation, from
   the task queue up to a 0 B echo call.  An iteration is timed as the
   rungs of test/budgets.ml count their words: a [warm + iters] run
   minus a [warm] run, over [iters], which cancels set-up.  Each row is
   the least of [reps] such readings, since a shared host only ever adds
   time.  The table is a reading, not a gate: host time depends on the
   machine. *)

module R = Metrics.Report
module BW = Harness.Backend_world
open Sim

let reps = 7

let ns_per_iter ~warm ~iters run =
  let time n =
    let t0 = Sys.time () in
    run n;
    Sys.time () -. t0
  in
  let best = ref infinity in
  for _ = 1 to reps do
    let w = time warm in
    best := Float.min !best ((time (warm + iters) -. w) /. float iters)
  done;
  !best *. 1e9

(* [n] adds and pops on a queue holding 100 entries. *)
let pairs ~add ~pop n =
  for seq = 1 to n do
    add ~time:(seq * 7919 mod 1000) ~seq;
    ignore (Sys.opaque_identity (pop ()))
  done

let queue_pairs ~add ~pop =
  for seq = 1 to 100 do
    add ~time:0 ~seq
  done;
  ns_per_iter ~warm:10_000 ~iters:1_000_000 (pairs ~add ~pop)

let engine () = Engine.create ~log_capacity:0 ()

let p_reason = Engine.reason "p"

let park_wakes n =
  let e = engine () in
  let left = ref n in
  let rec step () =
    if !left > 0 then begin
      decr left;
      Engine.wake e (Engine.park e ~reason:p_reason) step ()
    end
  in
  ignore (Engine.spawn_stackless e step);
  Engine.run e

let yields n =
  let e = engine () in
  ignore (Engine.spawn e (fun () -> for _ = 1 to n do Engine.yield e done));
  Engine.run e

(* One fiber alone: every wake is the next task, so every sleep resumes
   in place. *)
let inline_sleeps n =
  let e = engine () in
  ignore (Engine.spawn e (fun () -> for _ = 1 to n do Engine.sleep e (Time.us 1) done));
  Engine.run e

(* Two fibers 1 us out of phase: the other fiber's wake is always due
   first, so every sleep is queued.  An iteration is one sleep of each. *)
let queued_sleeps n =
  let e = engine () in
  let sleeper offset =
    ignore
      (Engine.spawn e (fun () ->
           Engine.sleep e (Time.us offset);
           for _ = 1 to n do
             Engine.sleep e (Time.us 2)
           done))
  in
  sleeper 0;
  sleeper 1;
  Engine.run e

(* The 280 B value list of the [lynx.codec] rung. *)
let codec_roundtrips n =
  let vs =
    Lynx.Value.[ Int 42; Str (String.make 256 'x'); List [ Bool true; Int 7 ] ]
  in
  for _ = 1 to n do
    let payload, _ = Lynx.Codec.encode vs in
    ignore (Sys.opaque_identity (Lynx.Codec.decode payload ~enclosures:[||]))
  done

let raw name =
  match name with
  | "charlotte" -> Harness.Rpc_bench.raw_charlotte
  | "soda" -> Harness.Rpc_bench.raw_soda
  | _ -> Harness.Rpc_bench.raw_chrysalis

let run () =
  R.section
    (Printf.sprintf "host (on request): host ns per iteration, least of %d readings" reps);
  let row rung iteration ns = [ rung; iteration; Printf.sprintf "%.0f" ns ] in
  let engine_rows =
    [
      row "heap.add-pop" "`Sim.Heap` add+pop, 100 entries held"
        (let h = Heap.create () in
         queue_pairs ~add:(fun ~time ~seq -> Heap.add h ~time ~seq seq) ~pop:(fun () -> Heap.pop h));
      row "taskq.add-take" "`Sim.Taskq` add+take, 100 entries held"
        (let q = Taskq.create () in
         queue_pairs
           ~add:(fun ~time ~seq -> Taskq.add q ~time ~seq ~clk:Vclock.empty ignore)
           ~pop:(fun () -> Taskq.take q));
      row "engine.park-wake" "stackless `park`+`wake`"
        (ns_per_iter ~warm:1_000 ~iters:200_000 park_wakes);
      row "engine.yield" "`Engine.yield` of an effect fiber"
        (ns_per_iter ~warm:1_000 ~iters:200_000 yields);
      row "engine.sleep.inline" "`Engine.sleep` whose wake is the next task"
        (ns_per_iter ~warm:1_000 ~iters:200_000 inline_sleeps);
      row "engine.sleep" "`Engine.sleep` with another task due first"
        (ns_per_iter ~warm:1_000 ~iters:100_000 queued_sleeps /. 2.);
      row "lynx.codec" "encode+decode of the 280 B value list"
        (ns_per_iter ~warm:1_000 ~iters:100_000 codec_roundtrips);
    ]
  in
  let backend_rows (b : BW.backend) =
    [
      row ("kernel.raw-echo." ^ b.name) "raw 0 B echo: the same kernel calls, no LYNX"
        (ns_per_iter ~warm:30 ~iters:5_000 (fun iters ->
             ignore (raw b.name ~payload:0 ~iters ())));
      row ("lynx.echo." ^ b.name) "0 B echo call"
        (ns_per_iter ~warm:30 ~iters:5_000 (fun iters ->
             ignore (Harness.Rpc_bench.run b ~payload:0 ~iters ())));
    ]
  in
  R.table ~header:[ "rung"; "one iteration"; "host ns" ]
    (engine_rows @ List.concat_map backend_rows BW.all);
  R.print_endline
    "  a reading of this host, not a gate; the words per iteration are\n\
    \  the rungs of test/budgets.ml"
