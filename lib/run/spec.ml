open Sim

type policy = Fifo | Random | Jitter

let all_policies = [ Fifo; Random; Jitter ]

let policy_name = function
  | Fifo -> "fifo"
  | Random -> "random"
  | Jitter -> "jitter"

let policy_of_string = function
  | "fifo" -> Some Fifo
  | "random" -> Some Random
  | "jitter" -> Some Jitter
  | _ -> None

(* The jitter bound must stay well under the millisecond-scale timing
   margins the scenarios are written with: it perturbs which of two
   nearby events wins a race without rewriting the script. *)
let jitter_bound = Time.us 20

let engine_policy kind ~seed =
  match kind with
  | Fifo -> Engine.Fifo
  | Random -> Engine.Random_order seed
  | Jitter -> Engine.Delay_jitter { jitter_seed = seed; bound = jitter_bound }

type plan =
  | Screen
  | Drop
  | Duplicate
  | Delay
  | Crash_restart
  | Partition
  | Mix
  | Leader_crash
  | Partition_minority
  | Partition_majority

let all_plans = [ Drop; Duplicate; Delay; Crash_restart; Partition; Mix ]

(* The targeted plans aim at specific protocol topologies (named
   victims, replica-group cuts), so they are opt-in per case rather
   than part of the default chaos product. *)
let targeted_plans = [ Leader_crash; Partition_minority; Partition_majority ]

let plan_name = function
  | Screen -> "screen"
  | Drop -> "drop"
  | Duplicate -> "duplicate"
  | Delay -> "delay"
  | Crash_restart -> "crash-restart"
  | Partition -> "partition"
  | Mix -> "mix"
  | Leader_crash -> "leader-crash"
  | Partition_minority -> "partition-minority"
  | Partition_majority -> "partition-majority"

let plan_of_string = function
  | "screen" -> Some Screen
  | "drop" -> Some Drop
  | "duplicate" -> Some Duplicate
  | "delay" -> Some Delay
  | "crash-restart" -> Some Crash_restart
  | "partition" -> Some Partition
  | "mix" -> Some Mix
  | "leader-crash" -> Some Leader_crash
  | "partition-minority" -> Some Partition_minority
  | "partition-majority" -> Some Partition_majority
  | _ -> None

let fault_plan = function
  | Screen -> Faults.Plan.none
  | Drop -> Faults.Plan.drops
  | Duplicate -> Faults.Plan.dups
  | Delay -> Faults.Plan.delays
  | Crash_restart -> Faults.Plan.crash_restart
  | Partition -> Faults.Plan.partition
  | Mix -> Faults.Plan.mix
  | Leader_crash -> Faults.Plan.leader_crash
  | Partition_minority -> Faults.Plan.partition_minority
  | Partition_majority -> Faults.Plan.partition_majority

type t = {
  scenario : string;
  backend : string;
  seed : int;
  policy : policy;
  plan : plan option;
  population : int option;
  shards : int;
}

let v ?(policy = Fifo) ?plan ?population ?(shards = 1) ~scenario ~backend seed =
  if shards < 1 then invalid_arg "Spec.v: shards must be at least 1";
  (match population with
  | Some p when p < 1 -> invalid_arg "Spec.v: population must be at least 1"
  | _ -> ());
  { scenario; backend; seed; policy; plan; population; shards }

(* The sweep product, scenario-major: every CLI sweep and test sweep is
   one call, so the row order of every table is the same everywhere. *)
let product ?(scenarios = Harness.Scenarios.names)
    ?(backends = Harness.Backend_world.names) ?(seeds = [ 1 ])
    ?(policies = [ Fifo ]) ?(plans = [ None ]) ?population ?shards () =
  List.concat_map
    (fun scenario ->
      List.concat_map
        (fun backend ->
          List.concat_map
            (fun seed ->
              List.concat_map
                (fun policy ->
                  List.map
                    (fun plan ->
                      v ~policy ?plan ?population ?shards ~scenario ~backend
                        seed)
                    plans)
                policies)
            seeds)
        backends)
    scenarios

(* Populations print with K/M multipliers when they divide evenly
   ("~n100K", "~n2M") and as plain digits otherwise ("~n1234"); the
   parser accepts all three forms, so round/huge populations stay
   readable in repro handles. *)
let population_to_string p =
  if p mod 1_000_000 = 0 then Printf.sprintf "%dM" (p / 1_000_000)
  else if p mod 1_000 = 0 then Printf.sprintf "%dK" (p / 1_000)
  else string_of_int p

let population_of_string s =
  let len = String.length s in
  if len = 0 then None
  else
    let mult, digits =
      match s.[len - 1] with
      | 'K' -> (1_000, String.sub s 0 (len - 1))
      | 'M' -> (1_000_000, String.sub s 0 (len - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt digits with
    | Some n when n >= 1 && n <= max_int / mult -> Some (n * mult)
    | _ -> None

let to_string s =
  Printf.sprintf "%s/%s/%d/%s%s%s%s" s.scenario s.backend s.seed
    (policy_name s.policy)
    (match s.plan with None -> "" | Some p -> "@" ^ plan_name p)
    (match s.population with
    | None -> ""
    | Some p -> "~n" ^ population_to_string p)
    (if s.shards = 1 then "" else Printf.sprintf "~s%d" s.shards)

let of_string str =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.split_on_char '/' str with
  | [ scenario; backend; seed_str; tail ] -> begin
    match (scenario, backend, int_of_string_opt seed_str) with
    | "", _, _ -> err "empty scenario in %S" str
    | _, "", _ -> err "empty backend in %S" str
    | _, _, None -> err "bad seed %S in %S" seed_str str
    | _, _, Some seed ->
      (* The population and shard suffixes follow the plan:
         policy[@plan][~nN][~sK].  Each tag appears at most once;
         stripping from the right accepts either order. *)
      let rec strip tail shards population =
        match String.rindex_opt tail '~' with
        | Some i when i + 1 < String.length tail -> begin
          let num = String.sub tail (i + 2) (String.length tail - i - 2) in
          let rest = String.sub tail 0 i in
          match tail.[i + 1] with
          | 's' when shards = None -> begin
            match int_of_string_opt num with
            | Some k when k >= 1 -> strip rest (Some k) population
            | _ -> err "bad shard count %S in %S" num str
          end
          | 'n' when population = None -> begin
            match population_of_string num with
            | Some p -> strip rest shards (Some p)
            | None -> err "bad population %S in %S" num str
          end
          | _ ->
            err "unknown or repeated suffix %S in %S"
              (String.sub tail i (String.length tail - i))
              str
        end
        | _ -> Ok (tail, shards, population)
      in
      match strip tail None None with
      | Error _ as e -> e
      | Ok (tail, shards, population) ->
        let shards = Option.value ~default:1 shards in
        let finish policy plan =
          Ok { scenario; backend; seed; policy; plan; population; shards }
        in
        begin
          match String.index_opt tail '@' with
          | Some i -> begin
            let pol = String.sub tail 0 i in
            let pl = String.sub tail (i + 1) (String.length tail - i - 1) in
            match (policy_of_string pol, plan_of_string pl) with
            | Some policy, Some plan -> finish policy (Some plan)
            | None, _ -> err "unknown policy %S in %S" pol str
            | _, None -> err "unknown fault plan %S in %S" pl str
          end
          | None -> begin
            match (policy_of_string tail, plan_of_string tail) with
            | Some policy, _ -> finish policy None
            | None, Some _ ->
              err "unknown policy %S in %S (a fault plan follows the policy: \
                   fifo@%s)" tail str tail
            | None, None -> err "unknown policy %S in %S" tail str
          end
        end
  end
  | _ -> err "spec %S is not scenario/backend/seed/policy[@plan]" str

let of_string_exn str =
  match of_string str with Ok s -> s | Error m -> invalid_arg m

let equal (a : t) (b : t) = a = b
let pp ppf s = Format.pp_print_string ppf (to_string s)
