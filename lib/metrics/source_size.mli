(** Source-size accounting for the code-size comparison (paper §3.3 vs
    §5.3): lines of implementation per backend library, measured the way
    the paper measures its run-time packages. *)

type count = {
  files : int;
  total_lines : int;
  code_lines : int;  (** non-blank lines containing code *)
  comment_lines : int;  (** non-blank lines that are comment-only *)
}

val zero : count
val add : count -> count -> count

val backend_sizes : unit -> (string * count) list option
(** Sizes of [lynx_charlotte], [lynx_soda], [lynx_chrysalis] and the
    shared [lynx] core, relative to the repository root; [None] when the
    sources are not accessible. *)

val layer_sizes : unit -> (string * count) list option
(** Our own code per layer, the way {!backend_sizes} measures the
    paper's run-time packages: one ["lib/<name>"] entry per library
    directory (sorted), then ["bin"], ["bench"] and ["test"].  The
    [lib/*] entries sum to the count of [lib].  [None] when the sources
    are not accessible. *)

(** The counter and the root finder, for tests that count planted files
    and read the repository's own. *)
module For_tests : sig
  val count_dir : string -> count
  (** Recursively counts every [.ml]/[.mli] under a directory; zero if
      the directory does not exist. *)

  val find_repo_root : unit -> string option
  (** Walks upward from the current directory to the [dune-project]. *)
end
