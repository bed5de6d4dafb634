type 'a arg = {
  a_ty : Ty.t;
  a_enc : 'a -> Value.t;
  a_dec : Value.t -> 'a;  (* raises Excn.Type_error *)
}

let fail what = raise (Excn.Type_error ("decode: expected " ^ what))

let unit =
  {
    a_ty = Ty.Unit;
    a_enc = (fun () -> Value.Unit);
    a_dec = (function Value.Unit -> () | _ -> fail "unit");
  }

let bool =
  {
    a_ty = Ty.Bool;
    a_enc = (fun b -> Value.Bool b);
    a_dec = (function Value.Bool b -> b | _ -> fail "bool");
  }

let int =
  {
    a_ty = Ty.Int;
    a_enc = (fun i -> Value.Int i);
    a_dec = (function Value.Int i -> i | _ -> fail "int");
  }

let str =
  {
    a_ty = Ty.Str;
    a_enc = (fun s -> Value.Str s);
    a_dec = (function Value.Str s -> s | _ -> fail "str");
  }

let link =
  {
    a_ty = Ty.Link;
    a_enc = (fun l -> Value.Link l);
    a_dec = (function Value.Link l -> l | _ -> fail "link");
  }

let pair a b =
  {
    a_ty = Ty.Pair (a.a_ty, b.a_ty);
    a_enc = (fun (x, y) -> Value.Pair (a.a_enc x, b.a_enc y));
    a_dec =
      (function
      | Value.Pair (x, y) -> (a.a_dec x, b.a_dec y)
      | _ -> fail "pair");
  }

let list a =
  {
    a_ty = Ty.List a.a_ty;
    a_enc = (fun xs -> Value.List (List.map a.a_enc xs));
    a_dec =
      (function Value.List xs -> List.map a.a_dec xs | _ -> fail "list");
  }

(* Options ride as lists of zero or one element (LYNX's type system has
   no option; a bounded list is the idiomatic encoding). *)
let option a =
  let l = list a in
  {
    a_ty = l.a_ty;
    a_enc = (function None -> l.a_enc [] | Some x -> l.a_enc [ x ]);
    a_dec =
      (fun v ->
        match l.a_dec v with
        | [] -> None
        | [ x ] -> Some x
        | _ -> fail "option");
  }

type ('req, 'resp) op = { o_name : string; o_req : 'req arg; o_resp : 'resp arg }

let defop ~name ~req ~resp = { o_name = name; o_req = req; o_resp = resp }
let name o = o.o_name

let call p lnk o req =
  match
    Process.call p lnk ~op:o.o_name
      ~expect:[ o.o_resp.a_ty ]
      [ o.o_req.a_enc req ]
  with
  | [ v ] -> o.o_resp.a_dec v
  | _ -> raise (Excn.Type_error ("reply arity of " ^ o.o_name))

let serve p lnk o fn =
  Process.serve p lnk ~op:o.o_name
    ~sg:(Ty.signature [ o.o_req.a_ty ] ~results:[ o.o_resp.a_ty ])
    (function
      | [ v ] -> [ o.o_resp.a_enc (fn (o.o_req.a_dec v)) ]
      | _ -> raise (Excn.Type_error ("request arity of " ^ o.o_name)))
