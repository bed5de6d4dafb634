(** Table formatting helpers for the bench harness and the CLI. *)

type cell = string

(* Print sink.  Report output normally goes straight to stdout, but the
   bench harness runs experiments on worker domains whose output must
   not interleave; each domain can redirect its own report lines into a
   private buffer with [with_sink] and print the buffer afterwards.
   Domain-local state keeps redirection on one domain from affecting
   another. *)
let sink : Buffer.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let print_string s =
  match !(Domain.DLS.get sink) with
  | None -> Stdlib.print_string s
  | Some buf -> Buffer.add_string buf s

let print_endline s =
  print_string s;
  print_string "\n"

let printf fmt = Printf.ksprintf print_string fmt

let with_sink buf f =
  let cell = Domain.DLS.get sink in
  let saved = !cell in
  cell := Some buf;
  Fun.protect ~finally:(fun () -> cell := saved) f

let rule widths =
  "+"
  ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths)
  ^ "+"

let row widths cells =
  let padded =
    List.map2
      (fun w c ->
        let c = if String.length c > w then String.sub c 0 w else c in
        Printf.sprintf " %-*s " w c)
      widths cells
  in
  "|" ^ String.concat "|" padded ^ "|"

(** Prints a simple ASCII table: the first row is the header. *)
let table ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let widths =
    List.init ncols (fun i ->
        List.fold_left
          (fun acc r ->
            match List.nth_opt r i with
            | Some c -> max acc (String.length c)
            | None -> acc)
          1 all)
  in
  print_endline (rule widths);
  print_endline (row widths header);
  print_endline (rule widths);
  List.iter (fun r -> print_endline (row widths r)) rows;
  print_endline (rule widths)

let ms v = Printf.sprintf "%.2f ms" v
let ratio v = Printf.sprintf "%.2fx" v

let section title = printf "\n=== %s ===\n" title
