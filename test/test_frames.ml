(* The three channels' frame codecs, pinned: the MD5 of every encoded
   frame (Charlotte packets, SODA bodies and out-of-band values, the
   length-prefixed Chrysalis slots written into a link object), a round
   trip over random headers for each decoder, and the channels' one-pass
   frames — the header writer, then [Lynx.Codec.write] — against the
   header and the separately encoded payload.  The wire length prices
   every transfer, so a frame that moves by one byte moves the paper's
   figures. *)

module Packet = Lynx_charlotte.Packet
module Wire = Lynx_soda.Wire
module Layout = Lynx_chrysalis.Layout

(* ---- The frames ------------------------------------------------------- *)

let charlotte_frame = Packet.encode
let soda_frame = Wire.For_tests.encode_body

(* What [transmit] writes at the slot offset: the slot's length, then
   the slot. *)
let chrysalis_frame = Layout.For_tests.encode_slot

(* A frame from its header writer, with raw payload bytes after the
   header. *)
let with_payload w payload =
  Lynx.Frame.sub w payload ~off:0 ~len:(Bytes.length payload);
  Lynx.Frame.finish w

(* Deterministic payload bytes. *)
let payload n = Bytes.init n (fun i -> Char.chr (((i * 7) + 3) land 0xff))

let op = "transfer"
let exns = [ None; Some "remote failure" ]

(* The largest payload a Chrysalis slot holds behind this header. *)
let slot_limit ~exn_msg ~n_encl =
  Layout.slot_size - 4
  - Bytes.length
      (with_payload
         (Layout.slot_writer ~corr:0 ~op ~exn_msg
            ~enclosures:(List.init n_encl Fun.id) ~len:0)
         Bytes.empty)

(* Every (exception, enclosure count, payload size) case: 0-3 ends,
   payloads of 0, 5 and 1000 B and the slot limit. *)
let cases =
  List.concat_map
    (fun exn_msg ->
      List.concat_map
        (fun n_encl ->
          List.map
            (fun size -> (exn_msg, n_encl, size))
            [ 0; 5; 1000; slot_limit ~exn_msg ~n_encl ])
        [ 0; 1; 2; 3 ])
    exns

let case_name (exn_msg, n_encl, size) =
  Printf.sprintf "%s encl=%d payload=%d"
    (if exn_msg = None then "ok" else "exn")
    n_encl size

let charlotte_frames =
  List.concat_map
    (fun ((exn_msg, n_encl, size) as c) ->
      let data kind =
        with_payload
          (Packet.data_writer ~kind ~seq:0x12345678 ~corr:0xbeef ~op ~exn_msg
             ~n_encl ~len:size)
          (payload size)
      in
      (if exn_msg = None then
         [ ("request " ^ case_name c, data Lynx.Backend.Request) ]
       else [])
      @ [ ("reply " ^ case_name c, data Lynx.Backend.Reply) ])
    cases
  @ List.map
      (fun h -> (Packet.label h, charlotte_frame h))
      [
        Packet.Enc { e_seq = 0x7fff0001; e_kind = Lynx.Backend.Request; e_index = 1 };
        Packet.Enc { e_seq = 42; e_kind = Lynx.Backend.Reply; e_index = 3 };
        Packet.Goahead { g_seq = 0x01020304 };
        Packet.Retry { r_seq = 0xffffffff };
        Packet.Forbid { f_seq = 0 };
        Packet.Allow;
        Packet.Ack { k_seq = 65536 };
      ]

let soda_bodies =
  List.map
    (fun ((exn_msg, n_encl, size) as c) ->
      let b_encl =
        List.init n_encl (fun i ->
            {
              Wire.e_my_name = 1000 + i;
              e_far_name = 0x10000 + i;
              e_hint = 0xffffffff - i;
            })
      in
      ( "body " ^ case_name c,
        with_payload
          (Wire.body_writer ~corr:0xbeef ~op ~exn_msg ~encl:b_encl ~len:size)
          (payload size) ))
    cases

let soda_frames =
  soda_bodies
  @ List.map
      (fun o -> ("req oob", Wire.encode_req_oob o))
      [
        Wire.Msg Lynx.Backend.Request;
        Wire.Msg Lynx.Backend.Reply;
        Wire.Sig;
        Wire.Freeze (Wire.freeze_name 7);
        Wire.Unfreeze;
      ]
  @ List.map
      (fun o -> ("acc oob", Wire.encode_acc_oob o))
      [ Wire.Ok_taken; Wire.Destroyed; Wire.Moved 5; Wire.Hint 0x01020304; Wire.No_hint ]

let chrysalis_frames =
  List.map
    (fun ((exn_msg, n_encl, size) as c) ->
      ( "slot " ^ case_name c,
        with_payload
          (Layout.slot_writer ~corr:0xbeef ~op ~exn_msg
             ~enclosures:(List.init n_encl (fun i -> (0x4000 + i) lsl 1 lor (i land 1)))
             ~len:size)
          (payload size) ))
    cases

let table frames =
  String.concat ""
    (List.map
       (fun (name, b) ->
         Printf.sprintf "%s %d %s\n" name (Bytes.length b)
           (Digest.to_hex (Digest.bytes b)))
       frames)

let golden_charlotte = {|
request ok encl=0 payload=0 25 597776dd9a10e6ec6ba0ba6821ff4bb0
reply ok encl=0 payload=0 25 d60b14cf27dbde3e9a63d77bc74ebd47
request ok encl=0 payload=5 30 60cc9df989e7ea2edd19d63ef745bbcf
reply ok encl=0 payload=5 30 4101813373d37aa3f0012239d8546ace
request ok encl=0 payload=1000 1025 9095d549f8e227e39a4434d07567331e
reply ok encl=0 payload=1000 1025 ed148c4417cbf747a19c5265f9a7c60c
request ok encl=0 payload=2016 2041 58516018158733f9e9d0929467f9fdee
reply ok encl=0 payload=2016 2041 6d2b402bf4669eeccb4753a82eb9dc7a
request ok encl=1 payload=0 25 f1c420fd8a07b7f9eb6e3bd612943199
reply ok encl=1 payload=0 25 d4ca25e413b62dbf3ec3a4cad1f479a4
request ok encl=1 payload=5 30 c4b331518c48d66b2280d0a9e44d06ec
reply ok encl=1 payload=5 30 56f8e9390bee0da426101335c5269478
request ok encl=1 payload=1000 1025 83cc4e59936ce114e33993b7300a4e8b
reply ok encl=1 payload=1000 1025 c3ce0e25b80b7a9ea4d93d7e4ec51c24
request ok encl=1 payload=2012 2037 5c39eed82baa302e09e41d17a90ce3a0
reply ok encl=1 payload=2012 2037 398e63ba36417fef638b650ad754bf78
request ok encl=2 payload=0 25 5c1f68714346e4de97db3970533dffc2
reply ok encl=2 payload=0 25 0cc28c27528c2207b28f65503734f5ac
request ok encl=2 payload=5 30 44833453b548d7f795e5f009047fe64f
reply ok encl=2 payload=5 30 54b55373d25e1165fe45ce7aa9af3c6e
request ok encl=2 payload=1000 1025 1c4db3e1c570b9a2a45aaaac44e01640
reply ok encl=2 payload=1000 1025 a167c5005c51bbab6e3d5a7de37e98a9
request ok encl=2 payload=2008 2033 49bcc8a32e1d5077dc59755d0218f340
reply ok encl=2 payload=2008 2033 baf30b6eae9b7a73ada0e2915957c822
request ok encl=3 payload=0 25 92f329d4b2e6f6b005c497badfd35aaf
reply ok encl=3 payload=0 25 e218652daa58d1ee7f3570d48679b2cc
request ok encl=3 payload=5 30 ea5ee56f79b25ae346ce5d54660ff791
reply ok encl=3 payload=5 30 d87a6f5a77aee264211d553dbe28631b
request ok encl=3 payload=1000 1025 73b99c1eca740ee43045358214599e98
reply ok encl=3 payload=1000 1025 5f63a223202ac2244371fa1ad2bfb2be
request ok encl=3 payload=2004 2029 249fb21667cbde134b2df4041c4ce5c5
reply ok encl=3 payload=2004 2029 a245be5795074408f093363242c455b5
reply exn encl=0 payload=0 41 bb88f3009f5d033318e5d0c12d2edd9f
reply exn encl=0 payload=5 46 b8c4733f3e7297cf43566dcdef6671c0
reply exn encl=0 payload=1000 1041 b90ac10cd8242ee80e5f4ef2a1f9ce28
reply exn encl=0 payload=2002 2043 b3857fb8b3e42b14de580c08301c28be
reply exn encl=1 payload=0 41 9fae77870b8e674a3179110ba140224a
reply exn encl=1 payload=5 46 b6f4fb53c3ac46534991bcf3fa59efae
reply exn encl=1 payload=1000 1041 b2b705cf490a22554f2f04ca5a24a888
reply exn encl=1 payload=1998 2039 75e04238083cd68cc4daef0a5272cdaa
reply exn encl=2 payload=0 41 06ad79f08641304ccfcee55bd4e7de3e
reply exn encl=2 payload=5 46 3209296c54590c7d8bd825ce0591d2e0
reply exn encl=2 payload=1000 1041 aa5cabf8b7d08e540843191583cc83f2
reply exn encl=2 payload=1994 2035 3fe1a6091407499c9a191fb8109ce83d
reply exn encl=3 payload=0 41 91aa54cf12745ee5dc67fd35757bc35c
reply exn encl=3 payload=5 46 1a96d5f8a668cf7458e4380db7a7e845
reply exn encl=3 payload=1000 1041 66ca8d90d6b4bbb565b64444941d3bae
reply exn encl=3 payload=1990 2031 7effde577d17be6cfac1e2d3a717b27d
enc 7 cc53ef7abd4dcaea1f6decb13b222e4b
enc 7 7d7a4bf5983cc5a0c94cabd181bbdf35
goahead 5 46094bafa72a92cdc1c998e2cc17d418
retry 5 bfa19365c4e1b888a524d8eb9d55f5ea
forbid 5 2cdcbccac92b353969bb2e447ce47fef
allow 1 89e74e640b8c46257a29de0616794d5d
ack 5 55e7cbad281d8eadc2be51df62f732c5
|}

let golden_soda = {|
body ok encl=0 payload=0 22 ea9960c8c61260cb5b9620362d7589d9
body ok encl=0 payload=5 27 cf681eed343ab5defd409436723d9932
body ok encl=0 payload=1000 1022 9bdda2bceeeb32822a09cebc81dc5650
body ok encl=0 payload=2016 2038 e914841496eabb8351e1f13c8c148ce3
body ok encl=1 payload=0 34 dc3be8ee6c648d3293b1a23ebb7e4f7e
body ok encl=1 payload=5 39 1a160f1ee4684ba768b5370781d6a266
body ok encl=1 payload=1000 1034 18ed22fbaba44ae10e4d2e20837a24fc
body ok encl=1 payload=2012 2046 e8023b26ea88abedf80472df6139722f
body ok encl=2 payload=0 46 670a2daea60082a7c7b37d454af0128b
body ok encl=2 payload=5 51 8404ee771ac0e677fba4b27c0001cf35
body ok encl=2 payload=1000 1046 3b81e4e11633ece4e6eaec4733c4b678
body ok encl=2 payload=2008 2054 92ee63a4c1a6b10a2a72c429eedbe61f
body ok encl=3 payload=0 58 5cbbe30e5633ce2cdea6b16700a52caf
body ok encl=3 payload=5 63 b893645110f0a15618508a63865bb136
body ok encl=3 payload=1000 1058 8f225db60f88f10104f72fff975a4e28
body ok encl=3 payload=2004 2062 fc5c43c636831d2c07e96b8be982118b
body exn encl=0 payload=0 36 6b0fcc9645bfb471ae84631832502eea
body exn encl=0 payload=5 41 691a22d74ab2afdc6d65760873a11357
body exn encl=0 payload=1000 1036 0ee054d4dc4ace58822019dd799ea4ff
body exn encl=0 payload=2002 2038 8ee0b69fe5d1919576a6e9064eb56b45
body exn encl=1 payload=0 48 c573de196a0995c54cbc629439ebfe80
body exn encl=1 payload=5 53 c780fb68ad714bc364d092778c11d886
body exn encl=1 payload=1000 1048 18d89ec50874e2a0f24f256b54da4adf
body exn encl=1 payload=1998 2046 01215c582deaaed630edb716f08bf819
body exn encl=2 payload=0 60 19c14704547859e7c27adf42cb9867b0
body exn encl=2 payload=5 65 2edc74b4bf73bcd08c4217f5eb1a88f5
body exn encl=2 payload=1000 1060 5860b3b44515264caa8a33a8445bc12e
body exn encl=2 payload=1994 2054 ca162138de1464dbe2ae06d257cd867e
body exn encl=3 payload=0 72 22c3f4a878f269a673a02cc4ab30c99a
body exn encl=3 payload=5 77 c8d058c733c3635eaef814964cb9c7c0
body exn encl=3 payload=1000 1072 fc3071b15c80965d2a7d06df7fbb2933
body exn encl=3 payload=1990 2062 b986133aee5e28d330f8cfc64b8a306a
req oob 1 55a54008ad1ba589aa210d2629c1df41
req oob 1 9e688c58a5487b8eaf69c9e1005ad0bf
req oob 1 8666683506aacd900bbd5a74ac4edf68
req oob 5 83407b0d4acabbcef40ddb92832abc02
req oob 1 8bb6c17838643f9691cc6a4de6c51709
acc oob 1 55a54008ad1ba589aa210d2629c1df41
acc oob 1 9e688c58a5487b8eaf69c9e1005ad0bf
acc oob 5 84adb6b19d51a566a2ab56b520f6833c
acc oob 5 46094bafa72a92cdc1c998e2cc17d418
acc oob 1 8bb6c17838643f9691cc6a4de6c51709
|}

let golden_chrysalis = {|
slot ok encl=0 payload=0 28 8a4a2b0759f4723bee2c91857bd19411
slot ok encl=0 payload=5 33 979bc23efd36b88997a57f74fa455810
slot ok encl=0 payload=1000 1028 a88de4e28d2f617060daf90484e9b613
slot ok encl=0 payload=2016 2044 d55daabded0a3174059abbfb877b1dd4
slot ok encl=1 payload=0 32 b09b4c858f4547a0fd19e3815bb413b2
slot ok encl=1 payload=5 37 ba85f5daa0b1d3894b33b69c9c5f0290
slot ok encl=1 payload=1000 1032 08534a45c5181d41e6323d3649ab151a
slot ok encl=1 payload=2012 2044 e82ec7cecdabfd7ca1ae01b480b225b6
slot ok encl=2 payload=0 36 a2c0876be07935f25011df439f0c3350
slot ok encl=2 payload=5 41 369560c675bf0e15f6f899f4ef822171
slot ok encl=2 payload=1000 1036 6ddb16e0c45050fdc63ac7462b7d9667
slot ok encl=2 payload=2008 2044 1284dc79cc14a5ebd2c1935840bcb95e
slot ok encl=3 payload=0 40 601fb58e017bf8388fbb55f24eca0667
slot ok encl=3 payload=5 45 2c612515a6b734c1e69cd8b8b7c3f38c
slot ok encl=3 payload=1000 1040 db35d9516a9dc7d025764bb7d751bf02
slot ok encl=3 payload=2004 2044 527d3da4b7ff23536aeaf887be34c809
slot exn encl=0 payload=0 42 13a8208f6f93c1927a81534182092684
slot exn encl=0 payload=5 47 1bb196ac30669418e5779bf60cba748c
slot exn encl=0 payload=1000 1042 01b392f729909d56e140771be5daa847
slot exn encl=0 payload=2002 2044 e61e52f4143798d20e6bf1a4f20c519b
slot exn encl=1 payload=0 46 750d3d90b0a427c6db9a45c592c2382f
slot exn encl=1 payload=5 51 e5c414ab9ac83c0e5b9cd3b5e17f2cea
slot exn encl=1 payload=1000 1046 e34e2cea03af5ae39f1cf6020cd08e15
slot exn encl=1 payload=1998 2044 d362cb63f86acb627b625ca31654b45f
slot exn encl=2 payload=0 50 db5695eeed6b869b0b294f9b00c50beb
slot exn encl=2 payload=5 55 959b6c8b6c7f0146a304d6571da91de5
slot exn encl=2 payload=1000 1050 81863567e0317972564da589a38ba483
slot exn encl=2 payload=1994 2044 b4f8eeff8d7754d6f06752710bef4f9f
slot exn encl=3 payload=0 54 be4f2a95a2213889090ef79045b3b9a0
slot exn encl=3 payload=5 59 c8fc7450078dd597e1a9d40ab88e9986
slot exn encl=3 payload=1000 1054 fc7597067c4e2812b4e15b21cdaac925
slot exn encl=3 payload=1990 2044 8972c5b6ea4211e4ca1de6cf2f2860a5
|}

let golden_tests =
  List.map
    (fun (name, golden, frames) ->
      Alcotest.test_case (name ^ " frames unchanged") `Quick (fun () ->
          Alcotest.(check string) name (String.trim golden)
            (String.trim (table frames))))
    [
      ("charlotte", golden_charlotte, charlotte_frames);
      ("soda", golden_soda, soda_frames);
      ("chrysalis", golden_chrysalis, chrysalis_frames);
    ]

(* ---- Round trips over random headers ---------------------------------- *)

module G = QCheck.Gen

let u32 = G.int_bound 0xffffffff
let short = G.string_size (G.int_bound 30)
(* A payload slice: [len] bytes from [off] of a larger buffer. *)
let slice =
  let open G in
  triple (string_size (int_bound 1200)) (int_bound 8) (int_bound 8)
  >|= fun (s, before, after) ->
  (Bytes.of_string (String.make before '<' ^ s ^ String.make after '>'), before, String.length s)
let kind = G.oneofl [ Lynx.Backend.Request; Lynx.Backend.Reply ]

(* A header with its payload slice copied out, for comparison. *)
let charlotte_flat (h : Packet.header) =
  let flat (d : Packet.data_header) =
    { d with d_payload = Bytes.sub d.d_payload d.d_off d.d_len; d_off = 0 }
  in
  match h with
  | Req_first d -> Packet.Req_first (flat d)
  | Rep_first d -> Packet.Rep_first (flat d)
  | h -> h

let soda_flat (b : Wire.body) =
  { b with b_payload = Bytes.sub b.b_payload b.b_off b.b_len; b_off = 0 }

let charlotte_header =
  let open G in
  let data =
    map
      (fun ((d_seq, d_corr, d_op), (d_exn, d_n_encl, (d_payload, d_off, d_len))) ->
        { Packet.d_seq; d_corr; d_op; d_exn; d_n_encl; d_payload; d_off; d_len })
      (pair (triple u32 u32 short) (triple (opt short) (int_bound 0xff) slice))
  in
  oneof
    [
      map (fun d -> Packet.Req_first d) data;
      map (fun d -> Packet.Rep_first d) data;
      map3
        (fun e_seq e_kind e_index -> Packet.Enc { e_seq; e_kind; e_index })
        u32 kind (int_bound 0xff);
      map (fun g_seq -> Packet.Goahead { g_seq }) u32;
      map (fun r_seq -> Packet.Retry { r_seq }) u32;
      map (fun f_seq -> Packet.Forbid { f_seq }) u32;
      return Packet.Allow;
      map (fun k_seq -> Packet.Ack { k_seq }) u32;
    ]

let soda_body =
  let open G in
  let encl =
    map3
      (fun e_my_name e_far_name e_hint -> { Wire.e_my_name; e_far_name; e_hint })
      u32 u32 u32
  in
  map
    (fun ((b_corr, b_op, b_exn), (b_encl, (b_payload, b_off, b_len))) ->
      { Wire.b_corr; b_op; b_exn; b_encl; b_payload; b_off; b_len })
    (pair (triple u32 short (opt short)) (pair (list_size (int_bound 3) encl) slice))

(* A Chrysalis slot's header and a payload that fits the slot: at most
   2048 - 4 - 16 - 30 - 30 - 3 * 4 = 1956 B. *)
let chrysalis_slot =
  let open G in
  triple (triple u32 short (opt short)) (list_size (int_bound 3) u32)
    (map Bytes.of_string (string_size (int_bound 1956)))

(* What [take] decodes: the slot after its length prefix. *)
let chrysalis_decode frame =
  Layout.decode_slot (Bytes.sub frame 4 (Layout.decode_length frame))

let roundtrip_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"charlotte: decode (encode h) = h" ~count:500
        (QCheck.make charlotte_header) (fun h ->
          charlotte_flat (Packet.decode (charlotte_frame h)) = charlotte_flat h);
      QCheck.Test.make ~name:"soda: decode (encode b) = b" ~count:500
        (QCheck.make soda_body) (fun b ->
          soda_flat (Wire.decode_body (soda_frame b)) = soda_flat b);
      QCheck.Test.make ~name:"chrysalis: decode (encode slot) = slot" ~count:500
        (QCheck.make chrysalis_slot)
        (fun ((corr, op, exn_msg), enclosures, payload) ->
          let d =
            chrysalis_decode
              (chrysalis_frame ~corr ~op ~exn_msg ~enclosures ~payload)
          in
          d.Layout.d_corr = corr && d.d_op = op && d.d_exn = exn_msg
          && d.d_enclosures = enclosures
          && Bytes.sub d.d_payload d.d_off d.d_len = payload);
    ]

(* ---- One pass: values written straight behind the header ------------ *)

(* Messages with every kind of value, link placeholders included. *)
let values =
  let open G in
  let leaf =
    oneof
      [
        return Lynx.Value.Unit;
        map (fun b -> Lynx.Value.Bool b) bool;
        map (fun i -> Lynx.Value.Int i) int;
        map (fun s -> Lynx.Value.Str s) (string_size (int_bound 300));
        map (fun lid -> Lynx.Value.Link (Lynx.Link.make lid)) nat;
      ]
  in
  let value =
    fix (fun self depth ->
        if depth = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              (1, map2 (fun a b -> Lynx.Value.Pair (a, b)) (self (depth - 1)) (self (depth - 1)));
              (1, map (fun vs -> Lynx.Value.List vs) (list_size (int_bound 3) (self (depth - 1))));
            ])
  in
  list_size (int_bound 4) (value 2)

(* [writer] filled by [Lynx.Codec.write], as a channel builds its
   frame, is the header followed by [Lynx.Codec.encode]'s payload. *)
let one_pass writer vs =
  let payload, _ = Lynx.Codec.encode vs in
  let w = writer (Bytes.length payload) in
  Lynx.Codec.write w vs;
  Bytes.equal (Lynx.Frame.finish w) (with_payload (writer (Bytes.length payload)) payload)

let one_pass_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"charlotte: a data packet is its header and payload"
        ~count:300 (QCheck.make values) (fun vs ->
          one_pass
            (fun len ->
              Packet.data_writer ~kind:Lynx.Backend.Request ~seq:9 ~corr:3 ~op
                ~exn_msg:None ~n_encl:0 ~len)
            vs);
      QCheck.Test.make ~name:"soda: a body is its header and payload" ~count:300
        (QCheck.make values) (fun vs ->
          one_pass
            (fun len -> Wire.body_writer ~corr:3 ~op ~exn_msg:(Some "e") ~encl:[] ~len)
            vs);
      QCheck.Test.make ~name:"chrysalis: a slot is its header and payload"
        ~count:300 (QCheck.make values) (fun vs ->
          (* What fits a slot behind this header. *)
          QCheck.assume (Lynx.Value.size_list vs <= 1900);
          one_pass
            (fun len ->
              Layout.slot_writer ~corr:3 ~op ~exn_msg:None ~enclosures:[ 5 ] ~len)
            vs);
    ]

(* ---- Truncated frames ------------------------------------------------- *)

(* Every strict prefix of every pinned frame is rejected with the
   decoder's own [Malformed], never an [Invalid_argument] from a read
   past the end. *)
let truncation_test name rejects frames =
  Alcotest.test_case (name ^ ": every strict prefix is Malformed") `Quick
    (fun () ->
      List.iter
        (fun (frame_name, b) ->
          for n = 0 to Bytes.length b - 1 do
            if not (rejects (Bytes.sub b 0 n)) then
              Alcotest.failf "%s: a %d B prefix decoded" frame_name n
          done)
        frames)

let truncation_tests =
  [
    truncation_test "charlotte"
      (fun b ->
        match Packet.decode b with _ -> false | exception Packet.Malformed -> true)
      charlotte_frames;
    truncation_test "soda"
      (fun b ->
        match Wire.decode_body b with _ -> false | exception Wire.Malformed -> true)
      soda_bodies;
    (* What [take] decodes: each slot after its length prefix. *)
    truncation_test "chrysalis"
      (fun b ->
        match Layout.decode_slot b with
        | _ -> false
        | exception Layout.Malformed -> true)
      (List.map
         (fun (name, frame) ->
           (name, Bytes.sub frame 4 (Layout.decode_length frame)))
         chrysalis_frames);
  ]

let () =
  Alcotest.run "frames"
    [
      ("golden", golden_tests);
      ("round trip", roundtrip_tests);
      ("one pass", one_pass_tests);
      ("truncated", truncation_tests);
    ]
