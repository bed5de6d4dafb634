(* Tests for the backend-independent parts of the LYNX run-time package:
   values, runtime type checking, marshalling, and link move rules. *)

module V = Lynx.Value
module T = Lynx.Ty

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let mklink lid = Lynx.Link.make lid

let ty_tests =
  [
    Alcotest.test_case "scalars check" `Quick (fun () ->
        checkb "int" true (V.check T.Int (V.Int 3));
        checkb "bool" true (V.check T.Bool (V.Bool false));
        checkb "str" true (V.check T.Str (V.Str "x"));
        checkb "unit" true (V.check T.Unit V.Unit);
        checkb "mismatch" false (V.check T.Int (V.Str "x")));
    Alcotest.test_case "compound types check structurally" `Quick (fun () ->
        let ty = T.Pair (T.Int, T.List T.Str) in
        checkb "ok" true
          (V.check ty (V.Pair (V.Int 1, V.List [ V.Str "a"; V.Str "b" ])));
        checkb "bad element" false
          (V.check ty (V.Pair (V.Int 1, V.List [ V.Int 9 ])));
        checkb "empty list ok" true (V.check (T.List T.Int) (V.List [])));
    Alcotest.test_case "link type" `Quick (fun () ->
        checkb "link" true (V.check T.Link (V.Link (mklink 0)));
        checkb "not link" false (V.check T.Link (V.Int 1)));
    Alcotest.test_case "check_list arities" `Quick (fun () ->
        checkb "ok" true (V.check_list [ T.Int; T.Str ] [ V.Int 1; V.Str "a" ]);
        checkb "too few" false (V.check_list [ T.Int; T.Str ] [ V.Int 1 ]);
        checkb "too many" false
          (V.check_list [ T.Int ] [ V.Int 1; V.Int 2 ]));
    Alcotest.test_case "type names print" `Quick (fun () ->
        checks "pair" "(int * str list)"
          (T.to_string (T.Pair (T.Int, T.List T.Str))));
  ]

let value_tests =
  [
    Alcotest.test_case "size_bytes matches encoder output" `Quick (fun () ->
        let vs =
          [
            V.Int 42;
            V.Str "hello";
            V.Pair (V.Bool true, V.List [ V.Int 1; V.Int 2 ]);
            V.Link (mklink 3);
          ]
        in
        let payload, _ = Lynx.Codec.encode vs in
        checki "sizes agree" (V.size_list vs) (Bytes.length payload));
    Alcotest.test_case "links_of_list finds all ends in order" `Quick
      (fun () ->
        let a = mklink 1 and b = mklink 2 and c = mklink 3 in
        let vs =
          [ V.Pair (V.Link a, V.Int 0); V.List [ V.Link b ]; V.Link c ]
        in
        Alcotest.check
          Alcotest.(list int)
          "order" [ 1; 2; 3 ]
          (List.map (fun (l : Lynx.Link.t) -> l.Lynx.Link.lid)
             (V.links_of_list vs)));
    Alcotest.test_case "equal is structural" `Quick (fun () ->
        checkb "eq" true
          (V.equal (V.Pair (V.Int 1, V.Str "a")) (V.Pair (V.Int 1, V.Str "a")));
        checkb "neq" false (V.equal (V.Int 1) (V.Int 2));
        checkb "link by id" true (V.equal (V.Link (mklink 5)) (V.Link (mklink 5))));
    Alcotest.test_case "pp renders" `Quick (fun () ->
        checks "render" "(1, [true; ()])"
          (Format.asprintf "%a" V.pp
             (V.Pair (V.Int 1, V.List [ V.Bool true; V.Unit ]))));
  ]

(* The 280 B value list: an int, a 256 B string and a short list. *)
let codec_roundtrips n =
  let vs =
    [ V.Int 42; V.Str (String.make 256 'x'); V.List [ V.Bool true; V.Int 7 ] ]
  in
  for _ = 1 to n do
    let payload, _ = Lynx.Codec.encode vs in
    ignore (Sys.opaque_identity (Lynx.Codec.decode payload ~enclosures:[||]))
  done

let codec_tests =
  [
    Alcotest.test_case "words per encode+decode of 280 B" `Quick (fun () ->
        Budgets.exact "encode+decode" ~budget:Budgets.codec_roundtrip
          (Budgets.words_per_iter codec_roundtrips));
    Alcotest.test_case "round trip without links" `Quick (fun () ->
        let vs = [ V.Int (-7); V.Str "abc"; V.Bool true; V.Unit ] in
        let payload, encl = Lynx.Codec.encode vs in
        checki "no enclosures" 0 (List.length encl);
        let back = Lynx.Codec.decode payload ~enclosures:[||] in
        checkb "equal" true (List.for_all2 V.equal vs back));
    Alcotest.test_case "links become enclosure indices" `Quick (fun () ->
        let a = mklink 10 and b = mklink 20 in
        let vs = [ V.Link a; V.Str "mid"; V.Link b ] in
        let payload, encl = Lynx.Codec.encode vs in
        checki "two enclosures" 2 (List.length encl);
        (* Decode against fresh handles, as a receiver would. *)
        let fresh = [| mklink 100; mklink 200 |] in
        match Lynx.Codec.decode payload ~enclosures:fresh with
        | [ V.Link x; V.Str "mid"; V.Link y ] ->
          checki "first" 100 x.Lynx.Link.lid;
          checki "second" 200 y.Lynx.Link.lid
        | _ -> Alcotest.fail "bad shape");
    Alcotest.test_case "nested links extracted in order" `Quick (fun () ->
        let vs =
          [ V.List [ V.Link (mklink 1); V.Pair (V.Int 0, V.Link (mklink 2)) ] ]
        in
        let _, encl = Lynx.Codec.encode vs in
        Alcotest.check
          Alcotest.(list int)
          "order" [ 1; 2 ]
          (List.map (fun (l : Lynx.Link.t) -> l.Lynx.Link.lid) encl));
    Alcotest.test_case "truncated payload rejected" `Quick (fun () ->
        let payload, _ = Lynx.Codec.encode [ V.Str "hello world" ] in
        let cut = Bytes.sub payload 0 (Bytes.length payload - 3) in
        checkb "malformed" true
          (match Lynx.Codec.decode cut ~enclosures:[||] with
          | _ -> false
          | exception Lynx.Codec.Malformed _ -> true));
    Alcotest.test_case "enclosure index out of range rejected" `Quick
      (fun () ->
        let payload, _ = Lynx.Codec.encode [ V.Link (mklink 1) ] in
        checkb "malformed" true
          (match Lynx.Codec.decode payload ~enclosures:[||] with
          | _ -> false
          | exception Lynx.Codec.Malformed _ -> true));
    Alcotest.test_case "negative ints survive" `Quick (fun () ->
        let vs = [ V.Int min_int; V.Int (-1); V.Int max_int ] in
        let payload, _ = Lynx.Codec.encode vs in
        let back = Lynx.Codec.decode payload ~enclosures:[||] in
        checkb "equal" true (List.for_all2 V.equal vs back));
    Alcotest.test_case "empty message" `Quick (fun () ->
        let payload, encl = Lynx.Codec.encode [] in
        checki "empty" 0 (Bytes.length payload);
        checki "no links" 0 (List.length encl);
        checkb "decodes" true (Lynx.Codec.decode payload ~enclosures:[||] = []));
  ]

(* Generator for link-free values (links need process context). *)
let value_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                return V.Unit;
                map (fun b -> V.Bool b) bool;
                map (fun i -> V.Int i) int;
                map (fun s -> V.Str s) (string_size (int_bound 20));
              ]
          else
            frequency
              [
                (2, map (fun i -> V.Int i) int);
                (2, map (fun s -> V.Str s) (string_size (int_bound 20)));
                ( 1,
                  map2
                    (fun a b -> V.Pair (a, b))
                    (self (n / 2))
                    (self (n / 2)) );
                (1, map (fun vs -> V.List vs) (list_size (int_bound 4) (self (n / 3))));
              ])
        n)

let codec_roundtrip_property =
  QCheck.Test.make ~name:"codec round-trips arbitrary values" ~count:300
    (QCheck.make value_gen)
    (fun v ->
      let payload, _ = Lynx.Codec.encode [ v ] in
      match Lynx.Codec.decode payload ~enclosures:[||] with
      | [ v' ] -> V.equal v v'
      | _ -> false)

let size_property =
  QCheck.Test.make ~name:"size_bytes always matches encoding" ~count:300
    (QCheck.make value_gen)
    (fun v ->
      let payload, _ = Lynx.Codec.encode [ v ] in
      Bytes.length payload = V.size_bytes v)

(* Messages as the runtime sends them: several values, links included,
   strings up to 4 KB. *)
let message_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return V.Unit;
        map (fun b -> V.Bool b) bool;
        map (fun i -> V.Int i) int;
        map (fun s -> V.Str s) (string_size (int_bound 4096));
        map (fun lid -> V.Link (mklink lid)) nat;
      ]
  in
  let value =
    fix (fun self depth ->
        if depth = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              (1, map2 (fun a b -> V.Pair (a, b)) (self (depth - 1)) (self (depth - 1)));
              (1, map (fun vs -> V.List vs) (list_size (int_bound 4) (self (depth - 1))));
            ])
  in
  list_size (int_bound 4) (value 3)

let exact_size_property =
  QCheck.Test.make ~name:"encode is exact-size and round-trips messages" ~count:200
    (QCheck.make message_gen)
    (fun vs ->
      let payload, encl = Lynx.Codec.encode vs in
      let back = Lynx.Codec.decode payload ~enclosures:(Array.of_list encl) in
      Bytes.length payload = V.size_list vs
      && List.length back = List.length vs
      && List.for_all2 V.equal vs back)

let typecheck_property =
  QCheck.Test.make ~name:"decoded values keep their types" ~count:200
    (QCheck.make value_gen)
    (fun v ->
      let rec ty_of (v : V.t) : T.t =
        match v with
        | V.Unit -> T.Unit
        | V.Bool _ -> T.Bool
        | V.Int _ -> T.Int
        | V.Str _ -> T.Str
        | V.Link _ -> T.Link
        | V.Pair (a, b) -> T.Pair (ty_of a, ty_of b)
        | V.List [] -> T.List T.Unit
        | V.List (x :: _) -> T.List (ty_of x)
      in
      let ty = ty_of v in
      (not (V.check ty v))
      ||
      let payload, _ = Lynx.Codec.encode [ v ] in
      match Lynx.Codec.decode payload ~enclosures:[||] with
      | [ v' ] -> V.check ty v'
      | _ -> false)

let link_tests =
  [
    Alcotest.test_case "fresh link is live and movable" `Quick (fun () ->
        let l = mklink 0 in
        checkb "usable" true (Lynx.Link.is_usable l);
        checkb "movable" true (Lynx.Link.move_obstacle l = None));
    Alcotest.test_case "unreceived sends block moving" `Quick (fun () ->
        let l = mklink 0 in
        l.Lynx.Link.unreceived_sends <- 1;
        checkb "blocked" true (Lynx.Link.move_obstacle l <> None));
    Alcotest.test_case "owed replies block moving" `Quick (fun () ->
        let l = mklink 0 in
        l.Lynx.Link.owed_replies <- 1;
        checkb "blocked" true (Lynx.Link.move_obstacle l <> None));
    Alcotest.test_case "dead and moving links are not movable" `Quick
      (fun () ->
        let l = mklink 0 in
        l.Lynx.Link.l_state <- Lynx.Link.Dead;
        checkb "dead" true (Lynx.Link.move_obstacle l <> None);
        let m = mklink 1 in
        m.Lynx.Link.l_state <- Lynx.Link.Moving;
        checkb "moving" true (Lynx.Link.move_obstacle m <> None));
    Alcotest.test_case "state names render" `Quick (fun () ->
        checks "live" "live" (Lynx.Link.state_to_string Lynx.Link.Live);
        checks "lost" "lost" (Lynx.Link.state_to_string Lynx.Link.Lost));
  ]

let excn_tests =
  [
    Alcotest.test_case "exception messages" `Quick (fun () ->
        checks "destroyed" "link destroyed"
          (Lynx.Excn.to_string Lynx.Excn.Link_destroyed);
        checks "move" "move violation: x"
          (Lynx.Excn.to_string (Lynx.Excn.Move_violation "x"));
        checks "remote" "remote error: y"
          (Lynx.Excn.to_string (Lynx.Excn.Remote_error "y")));
  ]

let () =
  Alcotest.run "lynx_core"
    [
      ("ty", ty_tests);
      ("value", value_tests);
      ( "codec",
        codec_tests
        @ List.map QCheck_alcotest.to_alcotest
            [
              codec_roundtrip_property;
              size_property;
              exact_size_property;
              typecheck_property;
            ] );
      ("link", link_tests);
      ("excn", excn_tests);
    ]
