(* Pipeline: a multi-process dataflow pipeline connected by links.

   Run with:   dune exec examples/pipeline.exe [backend] [n_items]

   Stage processes know nothing of each other; a control process wires
   them by {e moving link ends} in "wire" requests.  Items then flow
   through as nested remote operations: each stage transforms the item
   and calls the next stage before replying upstream.  Demonstrates the
   loosely-coupled style LYNX was designed for, and the coroutine
   mechanism: each stage overlaps several in-flight items. *)

open Sim
module P = Lynx.Process
module V = Lynx.Value

let stages =
  [ ("double", fun x -> 2 * x); ("inc", fun x -> x + 1); ("square", fun x -> x * x) ]

let () =
  let backend = if Array.length Sys.argv > 1 then Sys.argv.(1) else "chrysalis" in
  let n_items =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 5
  in
  Printf.printf "Pipeline (%s) on %s with %d items\n"
    (String.concat " -> " (List.map fst stages))
    backend n_items;
  let backend = Harness.Backend_world.find_exn backend in
  let engine = Engine.create () in
  let world = backend.create engine ~nodes:8 in

  let control_plan = Sync.Ivar.create engine in
  let first_stage = Sync.Ivar.create engine in
  let wired = Sync.Ivar.create engine in

  (* Each stage: the first request is "wire" (carrying the link to the
     next stage, if any); after that it serves "item" forever. *)
  let stage_members =
    List.mapi
      (fun i (sname, f) ->
        Lynx.World.spawn world ~daemon:true ~node:(i + 1) ~name:sname (fun p ->
            let wire = P.await_request p () in
            let next =
              match wire.P.in_args with [ V.Link l ] -> Some l | _ -> None
            in
            wire.P.in_reply [];
            let rec serve () =
              let inc = P.await_request p () in
              (* Each item gets its own coroutine so the stage can
                 overlap several in-flight items. *)
              P.spawn_thread p (fun () ->
                  match inc.P.in_args with
                  | [ V.Int x ] ->
                    let y = f x in
                    let out =
                      match next with
                      | None -> y
                      | Some nxt -> (
                        match P.call p nxt ~op:"item" [ V.Int y ] with
                        | [ V.Int z ] -> z
                        | _ -> y)
                    in
                    inc.P.in_reply [ V.Int out ]
                  | _ -> inc.P.in_reply []);
              serve ()
            in
            try serve () with Lynx.Excn.Link_destroyed -> ()))
      stages
  in

  (* Control process: tells each stage where its successor lives by
     moving a link end in the wire request. *)
  let control =
    Lynx.World.spawn world ~daemon:true ~node:6 ~name:"control" (fun p ->
        let plan = Sync.Ivar.read control_plan in
        List.iter
          (fun (ctrl_link, down) ->
            ignore
              (P.call p ctrl_link ~op:"wire"
                 (match down with None -> [] | Some l -> [ V.Link l ])))
          plan;
        Sync.Ivar.fill wired ())
  in

  let source =
    Lynx.World.spawn world ~node:0 ~name:"source" (fun p ->
        let head = Sync.Ivar.read first_stage in
        let expect x = List.fold_left (fun acc (_, f) -> f acc) x stages in
        for x = 1 to n_items do
          match P.call p head ~op:"item" [ V.Int x ] with
          | [ V.Int y ] ->
            Printf.printf "  item %2d -> %4d (expected %4d) at %s\n" x y
              (expect x)
              (Time.to_string (Engine.now engine))
          | _ -> Printf.printf "  item %d -> ?\n" x
        done)
  in

  ignore
    (Engine.spawn engine ~name:"wiring" (fun () ->
         (* control <-> stage_i links. *)
         let ctrl_links =
           List.map
             (fun m ->
               let c_end, _ = Lynx.World.link_between world control m in
               c_end)
             stage_members
         in
         (* For each consecutive pair, a link created between control and
            stage_{i+1}; control moves its end to stage_i via "wire". *)
         let rec downs = function
           | _ :: (m2 :: _ as rest) ->
             let to_next, _ = Lynx.World.link_between world control m2 in
             Some to_next :: downs rest
           | _ -> [ None ]
         in
         Sync.Ivar.fill control_plan
           (List.combine ctrl_links (downs stage_members));
         Sync.Ivar.read wired;
         let src_end, _ = Lynx.World.link_between world source (List.hd stage_members) in
         Sync.Ivar.fill first_stage src_end));

  Engine.run engine;
  Printf.printf "simulated time: %s\n" (Time.to_string (Engine.now engine))
