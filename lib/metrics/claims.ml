(** The paper's figures, each stated once, with the measurement that
    checks each one.  See the interface for who reads the list. *)

module BW = Harness.Backend_world
module RB = Harness.Rpc_bench
module S = Harness.Scenarios

type measure_unit = Ms | Times | Percent | Bytes | Calls

type expect =
  | Within of float * float
  | Exactly of float
  | Above of float
  | Inside of float * float

type value = Value of float | Bracket of float * float

type t = {
  id : string;
  section : string;
  what : string;
  unit : measure_unit;
  expect : expect;
  measure : unit -> value;
}

(* ---- measurements ------------------------------------------------------ *)

let lynx b payload = RB.mean_ms (RB.run b ~payload ())
let raw_charlotte payload = Sim.Time.to_ms (RB.raw_charlotte ~payload ())

let kernel_msgs b =
  let r = RB.run b ~payload:0 () in
  float_of_int
    (Option.value ~default:0 (List.assoc_opt "charlotte.kernel_msgs" r.RB.r_counters))

(* The payload where Charlotte overtakes SODA under LYNX, bisected to
   one byte: SODA is faster at [lo], Charlotte at [hi]. *)
let crossover () =
  let soda_wins p = lynx BW.soda p < lynx BW.charlotte p in
  let rec bisect lo hi =
    if hi - lo <= 1 then Bracket (float_of_int lo, float_of_int hi)
    else
      let mid = (lo + hi) / 2 in
      if soda_wins mid then bisect mid hi else bisect lo mid
  in
  if soda_wins 0 && not (soda_wins 2500) then bisect 0 2500
  else failwith "no crossover between 0 and 2500 B"

(* Calls completed, of the six the §4.2.1 pair-pressure scenario makes. *)
let completed o = Scanf.sscanf o.S.o_detail "budget=%_B completed=%d" float_of_int

(* ---- the registry -------------------------------------------------------- *)

let claim id section what unit expect measure =
  { id; section; what; unit; expect; measure = (fun () -> Value (measure ())) }

let all =
  [
    claim "E1.lynx-0B" "3.3" "Charlotte LYNX remote op, 0 B" Ms
      (Within (57., 5.)) (fun () -> lynx BW.charlotte 0);
    claim "E1.lynx-1000B" "3.3" "Charlotte LYNX remote op, 1000 B" Ms
      (Within (65., 5.)) (fun () -> lynx BW.charlotte 1000);
    claim "E1.raw-0B" "3.3" "Charlotte raw kernel calls, 0 B" Ms
      (Within (55., 5.)) (fun () -> raw_charlotte 0);
    claim "E1.raw-1000B" "3.3" "Charlotte raw kernel calls, 1000 B" Ms
      (Within (60., 5.)) (fun () -> raw_charlotte 1000);
    claim "E3.soda-speedup" "4.3" "raw round trip, Charlotte / SODA" Times
      (Within (3., 10.)) (fun () ->
        raw_charlotte 0 /. Sim.Time.to_ms (RB.raw_soda ~payload:0 ()));
    {
      id = "E3.crossover";
      section = "4.3 fn 2";
      what = "payload where Charlotte overtakes SODA";
      unit = Bytes;
      expect = Inside (1000., 2000.);
      measure = crossover;
    };
    claim "E4.lynx-0B" "5.3" "Chrysalis LYNX remote op, 0 B" Ms
      (Within (2.4, 5.)) (fun () -> lynx BW.chrysalis 0);
    claim "E4.lynx-1000B" "5.3" "Chrysalis LYNX remote op, 1000 B" Ms
      (Within (4.6, 5.)) (fun () -> lynx BW.chrysalis 1000);
    claim "E4.vs-charlotte" "5.3" "LYNX remote op, Charlotte / Chrysalis" Times
      (Above 10.) (fun () -> lynx BW.charlotte 0 /. lynx BW.chrysalis 0);
    claim "A1.ack-traffic" "3.2.2" "kernel msgs, reply acks / plain" Times
      (Exactly 1.5) (fun () ->
        kernel_msgs BW.charlotte_acks /. kernel_msgs BW.charlotte);
    claim "A4.tuning" "5.3" "Chrysalis 0 B op saved by the tuning" Percent
      (Inside (30., 40.)) (fun () ->
        let base = lynx BW.chrysalis 0 in
        (base -. lynx BW.chrysalis_tuned 0) /. base *. 100.);
    claim "A5.budget" "4.2.1" "calls done of 6, signal budget" Calls
      (Exactly 6.) (fun () ->
        completed (S.soda_pair_pressure ~budget:true S.default BW.soda));
    claim "A5.naive-starves" "4.2.1" "calls done of 6, naive layer" Calls
      (Exactly 0.) (fun () ->
        let o = S.soda_pair_pressure ~budget:false S.default BW.soda in
        (* The starvation must come from the kernel's per-pair limit. *)
        if S.counter o "soda.pair_limit_hits" = 0 then
          failwith "starved without hitting the pair limit";
        completed o);
  ]

let ids = List.map (fun c -> c.id) all

let holds expect v =
  match (expect, v) with
  | Within (paper, pct), Value m ->
    if paper = 0. then m = 0. else Float.abs ((m -. paper) /. paper) *. 100. <= pct
  | Exactly paper, Value m -> m = paper
  | Above bound, Value m -> m > bound
  | Inside (lo, hi), Value m -> lo <= m && m <= hi
  | Inside (lo, hi), Bracket (a, b) -> lo <= a && b <= hi
  | (Within _ | Exactly _ | Above _), Bracket _ -> false

type result = { claim : t; measured : (value, string) Stdlib.result; ok : bool }

let check claim =
  match claim.measure () with
  | v -> { claim; measured = Ok v; ok = holds claim.expect v }
  | exception e -> { claim; measured = Error (Printexc.to_string e); ok = false }

(* ---- rendering ------------------------------------------------------------- *)

let suffix = function
  | Ms -> " ms"
  | Times -> "x"
  | Percent -> "%"
  | Bytes -> " B"
  | Calls -> " calls"

let show u v =
  let decimals = match u with Ms | Times -> 2 | Percent -> 1 | Bytes | Calls -> 0 in
  Printf.sprintf "%.*f%s" decimals v (suffix u)

let paper_cell c =
  let fig v = Printf.sprintf "%g%s" v (suffix c.unit) in
  match c.expect with
  | Within (v, pct) -> Printf.sprintf "%s +/-%g%%" (fig v) pct
  | Exactly v -> "exactly " ^ fig v
  | Above v -> "> " ^ fig v
  | Inside (lo, hi) -> Printf.sprintf "%g-%s" lo (fig hi)

let measured_cell r =
  let u = r.claim.unit in
  match (r.measured, r.claim.expect) with
  | Error msg, _ -> "error: " ^ msg
  | Ok (Bracket (lo, hi)), _ -> Printf.sprintf "%.0f-%s" lo (show u hi)
  | Ok (Value v), Within (paper, _) ->
    Printf.sprintf "%s (%+.1f%%)" (show u v) ((v -. paper) /. paper *. 100.)
  | Ok (Value v), _ -> show u v

let header = [ "claim"; "section"; "measures"; "paper"; "measured"; "verdict" ]

let cells r =
  let c = r.claim in
  [
    c.id;
    c.section;
    c.what;
    paper_cell c;
    measured_cell r;
    (if r.ok then "ok" else "MISMATCH");
  ]

let markdown results =
  let line cells = "| " ^ String.concat " | " cells ^ " |\n" in
  String.concat ""
    (line header
    :: line (List.map (fun _ -> "---") header)
    :: List.map (fun r -> line (cells r)) results)

let to_json results =
  let module J = Run.Json in
  let num v = J.Num (Printf.sprintf "%.17g" v) in
  let claim r =
    let c = r.claim in
    let measured =
      match r.measured with
      | Ok (Value v) -> [ ("value", num v) ]
      | Ok (Bracket (lo, hi)) -> [ ("lo", num lo); ("hi", num hi) ]
      | Error msg -> [ ("error", J.Str msg) ]
    in
    ( c.id,
      J.Obj
        ([
           ("section", J.Str c.section);
           ("measures", J.Str c.what);
           ("paper", J.Str (paper_cell c));
         ]
        @ measured
        @ [
            ("measured", J.Str (measured_cell r));
            ("ok", J.int (Bool.to_int r.ok));
          ]) )
  in
  J.to_string (J.document [ ("claims", J.Obj (List.map claim results)) ])
