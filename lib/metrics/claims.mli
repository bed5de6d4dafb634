(** The paper's figures, each stated once.

    Every number the paper is judged by — §3.3's Charlotte latencies,
    §4.3's SODA speedup and its footnote-2 crossover, §5.3's Chrysalis
    latencies, and the ablations' predictions — is one entry here: the
    paper's value, the predicate a measurement must satisfy, and the
    thunk that measures it.  The bench, the tests, [lynx_sim claims]
    and the claims blocks in EXPERIMENTS.md and README.md all read this
    list; none keeps a copy of a figure.  Measurements are virtual
    time, so every rendering is byte-deterministic. *)

type measure_unit = Ms | Times | Percent | Bytes | Calls

(** What the paper's figure demands of a measurement. *)
type expect =
  | Within of float * float
      (** [Within (v, pct)]: within [pct] percent of the paper's [v] *)
  | Exactly of float
  | Above of float  (** strictly greater *)
  | Inside of float * float
      (** the value, or the whole measured bracket, lies in [lo, hi] *)

(** A measurement: one number, or a bracket known to contain the
    quantity (the crossover payload, bisected). *)
type value = Value of float | Bracket of float * float

type t = {
  id : string;  (** e.g. ["E1.lynx-0B"]: experiment, then the figure *)
  section : string;  (** the paper section that states the figure *)
  what : string;  (** what is measured, in a few words *)
  unit : measure_unit;
  expect : expect;
  measure : unit -> value;
}

val all : t list
(** The registry, in report order. *)

val ids : string list

val holds : expect -> value -> bool

type result = { claim : t; measured : (value, string) Stdlib.result; ok : bool }
(** A measurement that raises is [Error] of the exception's text, and
    fails its claim. *)

val check : t -> result

val header : string list
val cells : result -> string list
(** One report row: id, paper section, what, paper figure, measured,
    verdict. *)

val markdown : result list -> string
(** The rows as a Markdown table: [lynx_sim claims]' text output, and
    what the claims blocks in EXPERIMENTS.md and README.md hold. *)

val to_json : result list -> string
(** The results in the [lynx-run/1] subset [bench/compare.exe] parses:
    one object per claim, keyed by id. *)
