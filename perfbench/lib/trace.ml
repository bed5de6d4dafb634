(* In-memory spans around the benchmark's calls into each layer.

   A span records its layer name, the request it served (a spec, or a
   backend and payload), its parent span, its start and end, and counts
   noted at the same boundary.  Spans stay in memory until
   [write] dumps them as JSON lines at the end of the run.  With tracing
   off, [span] is a plain call. *)

type span = {
  id : int;
  name : string;
  req : string;
  parent : int;  (** -1 at top level *)
  t0 : float;
  mutable dur_s : float;  (** process CPU seconds *)
  mutable words : float;  (** minor words allocated inside the span *)
  mutable counts : (string * float) list;
}

let enabled = ref false
let spans : span list ref = ref []
let stack : span list ref = ref []
let next = ref 0

let span name ~req f =
  if not !enabled then f ()
  else begin
    let s =
      {
        id = !next;
        name;
        req;
        parent = (match !stack with p :: _ -> p.id | [] -> -1);
        t0 = Unix.gettimeofday ();
        dur_s = 0.;
        words = 0.;
        counts = [];
      }
    in
    incr next;
    stack := s :: !stack;
    let w0 = Gc.minor_words () in
    let t0 = Sys.time () in
    let finish () =
      let t1 = Sys.time () in
      let w1 = Gc.minor_words () in
      s.dur_s <- t1 -. t0;
      s.words <- w1 -. w0;
      stack := List.tl !stack;
      spans := s :: !spans
    in
    Fun.protect ~finally:finish f
  end

(* Attach a count to the innermost open span. *)
let note key v =
  match !stack with s :: _ when !enabled -> s.counts <- (key, v) :: s.counts | _ -> ()

let all () = List.rev !spans

(* Self time: a span's time minus the time of its direct children. *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.dur_s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map
    (fun s -> (s, s.dur_s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    (all ())

let by_name name = List.filter (fun s -> String.equal s.name name) (all ())
let total_s name = List.fold_left (fun a s -> a +. s.dur_s) 0. (by_name name)
let total_words name = List.fold_left (fun a s -> a +. s.words) 0. (by_name name)

let count name key =
  List.fold_left
    (fun a s -> a +. Option.value ~default:0. (List.assoc_opt key s.counts))
    0. (by_name name)

let write path =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"req\": %S, \"parent\": %d, \"start\": %.6f, \
         \"dur_s\": %.9f, \"self_s\": %.9f, \"minor_words\": %.0f, \"counts\": {%s}}\n"
        s.id s.name s.req s.parent s.t0 s.dur_s self s.words
        (String.concat ", "
           (List.rev_map (fun (k, v) -> Printf.sprintf "%S: %.17g" k v) s.counts)))
    (self_times ());
  close_out oc
