(* Map-reduce: a master fans work out to a pool of workers it found by
   name.

   Run with:   dune exec examples/mapreduce.exe [backend] [n_workers]

   The "pieces of a multi-process application" style from the paper's
   introduction: workers register themselves with the name server at
   startup; a master that shares no code with them looks the pool up,
   scatters chunks of an array as typed remote operations (one coroutine
   per worker, all in flight at once), and folds the partial sums. *)

open Sim
module P = Lynx.Process
module L = Lynx.Lang
module NS = Lynx.Nameserver

let sum_op = L.defop ~name:"sum" ~req:L.(list int) ~resp:L.int

let wait_first_link p =
  let rec go () =
    match P.live_links p with
    | l :: _ -> l
    | [] ->
      P.sleep p (Time.ms 1);
      go ()
  in
  go ()

let () =
  let backend = if Array.length Sys.argv > 1 then Sys.argv.(1) else "chrysalis" in
  let n_workers =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 3
  in
  Printf.printf "Map-reduce on %s with %d workers\n" backend n_workers;
  let backend = Harness.Backend_world.find_exn backend in
  let engine = Engine.create () in
  let world = backend.create engine ~nodes:(n_workers + 3) in

  let ns_member =
    Lynx.World.spawn world ~daemon:true ~node:0 ~name:"nameserver" NS.body
  in

  let workers =
    List.init n_workers (fun i ->
        Lynx.World.spawn world ~daemon:true ~node:(i + 1)
          ~name:(Printf.sprintf "worker%d" i) (fun p ->
            let ns = wait_first_link p in
            NS.serve_clones p ~ns ~on_client:(fun mine ->
                L.serve p mine sum_op (fun xs ->
                    (* Simulated per-element compute time. *)
                    P.sleep p (Time.us (50 * List.length xs));
                    List.fold_left ( + ) 0 xs));
            NS.register p ~ns ~name:(Printf.sprintf "summer%d" i);
            P.park p))
  in

  let master =
    Lynx.World.spawn world ~node:(n_workers + 1) ~name:"master" (fun p ->
        let ns = wait_first_link p in
        P.sleep p (Time.ms 300) (* registrations *);
        let data = List.init 120 (fun i -> i + 1) in
        let expected = List.fold_left ( + ) 0 data in
        (* Resolve the pool. *)
        let pool =
          List.filter_map
            (fun i -> NS.lookup p ~ns ~name:(Printf.sprintf "summer%d" i))
            (List.init n_workers Fun.id)
        in
        Printf.printf "  master resolved %d workers\n" (List.length pool);
        (* Scatter: chunk i goes to worker (i mod pool). *)
        let chunks =
          let rec split xs =
            if List.length xs <= 40 then [ xs ]
            else
              let rec take k = function
                | x :: rest when k > 0 ->
                  let got, left = take (k - 1) rest in
                  (x :: got, left)
                | rest -> ([], rest)
              in
              let c, rest = take 40 xs in
              c :: split rest
          in
          split data
        in
        let t0 = Engine.now engine in
        let total = ref 0 in
        let pending = ref (List.length chunks) in
        let all_done = Sync.Ivar.create engine in
        List.iteri
          (fun i chunk ->
            let worker = List.nth pool (i mod List.length pool) in
            P.spawn_thread p (fun () ->
                let s = L.call p worker sum_op chunk in
                total := !total + s;
                Printf.printf "  chunk %d -> %d\n" i s;
                decr pending;
                if !pending = 0 then Sync.Ivar.fill all_done ()))
          chunks;
        Sync.Ivar.read all_done;
        Printf.printf "  total %d (expected %d) in %s\n" !total expected
          (Time.to_string (Time.sub (Engine.now engine) t0)))
  in

  ignore
    (Engine.spawn engine ~name:"wiring" (fun () ->
         List.iter
           (fun m -> ignore (Lynx.World.link_between world m ns_member))
           (workers @ [ master ])));

  Engine.run engine;
  Printf.printf "simulated time: %s\n" (Time.to_string (Engine.now engine))
