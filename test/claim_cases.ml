(* One Alcotest case per registered paper claim whose id starts with
   [prefix].  The figure and its predicate live in Metrics.Claims only;
   a failure prints the claim's report row. *)
let cases prefix =
  let module C = Metrics.Claims in
  List.filter_map
    (fun (c : C.t) ->
      if not (String.starts_with ~prefix c.id) then None
      else
        Some
          (Alcotest.test_case
             (Printf.sprintf "§%s %s: %s" c.section c.id c.what)
             `Quick
             (fun () ->
               let r = C.check c in
               Alcotest.(check bool) (String.concat " | " (C.cells r)) true r.C.ok)))
    C.all
