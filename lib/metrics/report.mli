(** Table formatting helpers for the bench harness and the CLI. *)

type cell = string

val print_string : string -> unit
val print_endline : string -> unit

val printf : ('a, unit, string, unit) format4 -> 'a
(** Report output: stdout by default, or the current domain's sink
    buffer inside {!with_sink}. *)

val with_sink : Buffer.t -> (unit -> 'a) -> 'a
(** [with_sink buf f] redirects all report printing performed by [f]
    {e on the calling domain} into [buf].  The bench harness uses this
    to run experiments on worker domains without interleaving their
    output: each worker collects into a private buffer and the results
    are printed in experiment order afterwards. *)

val table : header:cell list -> cell list list -> unit
(** Prints an ASCII table to stdout; column widths fit the content. *)

val ms : float -> string
(** ["57.24 ms"]. *)

val ratio : float -> string
(** ["3.02x"]. *)

val section : string -> unit
(** Prints a section banner. *)
