(* Digits written straight into the result: [Printf.sprintf "n%d->n%d"]
   costs 58 minor words a call, this 3, and [Shard.send] names an
   object for every message. *)

let digits n =
  let rec go n d = if n < 10 then d else go (n / 10) (d + 1) in
  go n 1

let put b ~pos ~len n =
  let n = ref n in
  for i = pos + len - 1 downto pos do
    Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done

let check who n = if n < 0 then invalid_arg (who ^ ": negative number")

let int prefix n =
  check "Label.int" n;
  let p = String.length prefix and d = digits n in
  let b = Bytes.create (p + d) in
  Bytes.unsafe_blit_string prefix 0 b 0 p;
  put b ~pos:p ~len:d n;
  Bytes.unsafe_to_string b

let pair prefix a sep b =
  check "Label.pair" a;
  check "Label.pair" b;
  let p = String.length prefix and s = String.length sep in
  let da = digits a and db = digits b in
  let buf = Bytes.create (p + da + s + db) in
  Bytes.unsafe_blit_string prefix 0 buf 0 p;
  put buf ~pos:p ~len:da a;
  Bytes.unsafe_blit_string sep 0 buf (p + da) s;
  put buf ~pos:(p + da + s) ~len:db b;
  Bytes.unsafe_to_string buf
