(** Static may-race and may-deadlock prediction over a {!Protocol.t}.

    Four rules over the {!Mhp} approximation, each mirroring a detector
    the repo runs dynamically:

    - [S_msg] ~ R-MSG: two sends on one link end with no must-order;
    - [S_sig] ~ R-SIG: receive contexts that may race on a link;
    - [S_move] ~ R-MOVE: a link use concurrent with an enclosure move
      of one of its ends;
    - [S_dlk] ~ DLK01 widened: wait-for cycles reachable once fault
      plans can crash, occupy or starve the alternative servers a
      must-analysis counts on.

    Because {!Mhp} over-approximates concurrency, the prediction set
    contains every finding the dynamic detectors can produce on any
    schedule, seed, backend or fault plan — the containment
    {!Run.Soundness} checks across the sweeps.  Predictions whose
    static view alone shows a defect carry [p_alarm]; only those gate
    exit codes (clean protocols legitimately have racing serves — that
    is the paper's normal operating mode). *)

type rule = S_msg | S_sig | S_move | S_dlk

val rule_name : rule -> string
(** ["S-MSG"], ["S-SIG"], ["S-MOVE"], ["S-DLK"]. *)

val rule_of_race : string -> rule option
(** The static rule whose predictions contain a dynamic {!Races}
    finding with the given [r_rule] (["R-MSG"] → [S_msg], …); [None]
    for rule names the dynamic detector never emits. *)

type prediction = {
  p_rule : rule;
  p_protocol : string;
  p_subject : string;  (** the endpoint, or the cycle for [S_dlk] *)
  p_pair : string * string;
      (** the two parties that may run in parallel, as
          [thread.op#pos] / [move(end via end)] labels *)
  p_alarm : bool;
      (** the static view alone already shows a defect (lint-like
          reading); gates exit codes and CI *)
  p_detail : string;
}

val predict : Protocol.t -> prediction list
(** All predictions, in deterministic rule-then-declaration order.
    Validates the protocol first ({!Protocol.validate}). *)

val alarms : prediction list -> prediction list
(** The subset with [p_alarm] set. *)

val pp_prediction : Format.formatter -> prediction -> unit
