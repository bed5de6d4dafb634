(* The cross-backend test matrix: one Alcotest case per primary
   backend, named "NAME [backend]". *)
let on_all name speed f =
  List.map
    (fun (backend : Harness.Backend_world.backend) ->
      Alcotest.test_case (Printf.sprintf "%s [%s]" name backend.name) speed (fun () ->
          f backend))
    Harness.Backend_world.all
