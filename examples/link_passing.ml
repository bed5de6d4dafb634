(* Link passing: figure 1 of the paper, as a runnable demo.

   Run with:   dune exec examples/link_passing.exe [backend]

   Processes A and D are connected by link 3.  A encloses its end in a
   message to B while — simultaneously — D encloses its end in a message
   to C.  Neither mover knows about the other, yet the link survives:
   what used to connect A to D now connects B to C, proven by a ping.

   Run it on "charlotte" to watch the kernel's move machinery (three-way
   agreement cost, enclosure packets); on "soda"/"chrysalis" the move is
   just a hint update. *)

let () =
  let backend = if Array.length Sys.argv > 1 then Sys.argv.(1) else "chrysalis" in
  Printf.printf "Figure 1 (simultaneous move of both ends) on %s\n" backend;
  let backend = Harness.Backend_world.find_exn backend in
  let o = Harness.Scenarios.(simultaneous_move default backend) in
  Printf.printf "  outcome: %s  (%.2f ms of simulated time)\n" o.o_detail
    (Sim.Time.to_ms o.o_duration);
  print_endline "  interesting counters:";
  List.iter
    (fun (k, v) ->
      let interesting =
        List.exists
          (fun prefix ->
            String.length k >= String.length prefix
            && String.sub k 0 (String.length prefix) = prefix)
          [
            "charlotte.move_protocol";
            "charlotte.kernel_msgs";
            "lynx_charlotte.pkt";
            "lynx_soda.ends_";
            "lynx_soda.redirects";
            "lynx_soda.moved_";
            "lynx_soda.stale_hints";
            "lynx_chrysalis.ends_adopted";
            "chrysalis.maps";
          ]
      in
      if interesting && v <> 0 then Printf.printf "    %-42s %d\n" k v)
    o.o_counters;
  if not o.o_ok then exit 1
