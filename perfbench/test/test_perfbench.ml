(* Tests of the benchmark's own machinery: the correctness gate, the
   open-loop generator, the percentile helper and the seeded draws. *)

open Perfkit
module G = Circuit.Generators

(* ---------------- correctness gate ---------------- *)

let verdict = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Gate.verdict_string v)) ( = )
let is_ok = function Ok () -> true | Error _ -> false

let small_fail () = G.counter ~bits:3 ~target:5 ()

let checked_verdict (c : G.case) ~depth =
  let config = Bmc.Session.make_config ~mode:Bmc.Session.Static ~max_depth:depth () in
  Gate.of_session
    (Bmc.Session.check ~config ~policy:Bmc.Session.Persistent c.G.netlist ~property:c.G.property)
      .Bmc.Session.verdict

let test_gate_passes_true_answers () =
  let c = small_fail () in
  let v = checked_verdict c ~depth:8 in
  Alcotest.check verdict "counter falsifies at its target" (Gate.Falsified 5) v;
  Alcotest.(check bool) "matches its expectation" true (is_ok (Gate.check_expect c.G.expect ~depth:8 v));
  let v4 = checked_verdict c ~depth:4 in
  Alcotest.check verdict "bounded below the target" (Gate.Passed 4) v4;
  Alcotest.(check bool) "bounded pass expected below the target" true
    (is_ok (Gate.check_expect c.G.expect ~depth:4 v4))

let test_gate_fires_on_planted_expectation () =
  let c = small_fail () in
  let v = checked_verdict c ~depth:8 in
  List.iter
    (fun (what, wrong) ->
      Alcotest.(check bool) what false (is_ok (Gate.check_expect (Some wrong) ~depth:8 v)))
    [
      ("planted Holds", G.Holds);
      ("planted earlier failure", G.Fails_at 4);
      ("planted later failure", G.Fails_at 6);
    ];
  Alcotest.(check bool) "an undecided verdict is not a wrong answer" true
    (is_ok (Gate.check_expect (Some G.Holds) ~depth:8 (Gate.Aborted 3)))

(* A planted wrong expectation, through the run's tally, turns the result
   into correct=false with one failed operation. *)
let test_gate_fails_the_run () =
  let c = small_fail () in
  let v = checked_verdict c ~depth:8 in
  let correct t =
    match Obs.Json.member "correct" (Gate.result t ~metrics:[]) with
    | Some (Obs.Json.Bool b) -> b
    | _ -> Alcotest.fail "result has no boolean correct"
  in
  let t = Gate.tally () in
  Alcotest.(check bool) "nothing attempted is not correct" false (correct t);
  Gate.operation t "true" [ Gate.check_expect c.G.expect ~depth:8 v ];
  Alcotest.(check bool) "a true answer is correct" true (correct t);
  Gate.operation t "planted" [ Ok (); Gate.check_expect (Some G.Holds) ~depth:8 v ];
  Alcotest.(check int) "the planted answer failed" 1 (Gate.failed t);
  Alcotest.(check bool) "the run is not correct" false (correct t);
  Alcotest.(check int) "attempted counts both" 2
    (Obs.Json.get_int ~default:0 (Gate.result t ~metrics:[]) "attempted")

let test_gate_agreement_and_served () =
  Alcotest.(check bool) "orderings that agree" true
    (is_ok
       (Gate.check_agree [ ("standard", Gate.Passed 9); ("static", Gate.Passed 9); ("dynamic", Gate.Aborted 4) ]));
  Alcotest.(check bool) "orderings that disagree" false
    (is_ok (Gate.check_agree [ ("standard", Gate.Passed 9); ("static", Gate.Falsified 7) ]));
  let batch = Gate.Falsified 7 in
  Alcotest.(check bool) "served pass below the batch failure" true
    (is_ok (Gate.check_served ~batch ~depth:5 (Gate.Passed 5)));
  Alcotest.(check bool) "served failure at the batch depth" true
    (is_ok (Gate.check_served ~batch ~depth:9 (Gate.Falsified 7)));
  Alcotest.(check bool) "served pass past the batch failure" false
    (is_ok (Gate.check_served ~batch ~depth:9 (Gate.Passed 9)));
  Alcotest.(check (option verdict)) "a short batch run implies nothing deeper" None
    (Gate.at_depth (Gate.Passed 6) ~depth:8)

let test_gate_replays_served_trace () =
  let c = small_fail () in
  let text = Circuit.Textio.to_string c.G.netlist ~property:c.G.property in
  let server = Serve.Server.create (Serve.Server.make_config ()) in
  let rs =
    Fun.protect
      ~finally:(fun () -> Serve.Server.shutdown server)
      (fun () ->
        Serve.Server.check_now server
          {
            Serve.Protocol.rq_id = "t";
            rq_src = Serve.Protocol.Inline text;
            rq_depth = 8;
            rq_mode = None;
            rq_deadline_ms = None;
            rq_stats = false;
          })
  in
  match rs.Serve.Protocol.rs_reply with
  | Serve.Protocol.Answer { Serve.Protocol.rs_verdict = Serve.Protocol.Falsified (5, j); _ } ->
    Alcotest.(check bool) "served counterexample replays" true (is_ok (Gate.replay_served ~text j));
    let other = G.counter ~bits:3 ~target:6 () in
    let other_text = Circuit.Textio.to_string other.G.netlist ~property:other.G.property in
    Alcotest.(check bool) "it does not replay on another circuit" false
      (is_ok (Gate.replay_served ~text:other_text j));
    Alcotest.(check bool) "a truncated trace is refused" false
      (is_ok (Gate.replay_served ~text (Obs.Json.Obj [ ("depth", Obs.Json.Int 5) ])))
  | _ -> Alcotest.fail "expected a counterexample at depth 5"

(* ---------------- open-loop generator ---------------- *)

let fake_clock () =
  let t = ref 0.0 in
  let waits = ref 0 in
  ( { Loadgen.now = (fun () -> !t); wait = (fun dt -> incr waits; t := !t +. dt) },
    t,
    waits )

let test_loadgen_on_time () =
  let clock, _, waits = fake_clock () in
  let sent = ref [] in
  let run =
    Loadgen.run clock ~due:[| 0.0; 0.1; 0.25 |] ~send:(fun i -> sent := i :: !sent) ~poll:ignore
  in
  Alcotest.(check (list int)) "sends in order" [ 0; 1; 2 ] (List.rev !sent);
  Alcotest.(check bool) "waits between arrivals" true (!waits >= 2);
  Array.iter (fun l -> Alcotest.(check (float 1e-9)) "never late" 0.0 l) run.Loadgen.late

let test_loadgen_records_lateness () =
  let clock, t, _ = fake_clock () in
  let polls = ref 0 in
  (* every send stalls the generator for 0.25 s while requests fall due
     every 0.1 s: the schedule is kept, and the lag is recorded *)
  let run =
    Loadgen.run clock ~due:[| 0.0; 0.1; 0.2; 0.3 |]
      ~send:(fun _ -> t := !t +. 0.25)
      ~poll:(fun () -> incr polls)
  in
  Alcotest.(check (array (float 1e-9))) "lateness grows" [| 0.0; 0.15; 0.3; 0.45 |] run.Loadgen.late;
  Alcotest.(check bool) "polls while sending" true (!polls >= 4)

let test_paced () =
  let rng () = Random.State.make [| 3 |] in
  let a = Loadgen.paced (rng ()) ~rate:50.0 ~n:500 in
  Alcotest.(check (array (float 0.0))) "seeded" a (Loadgen.paced (rng ()) ~rate:50.0 ~n:500);
  Array.iteri
    (fun i d ->
      let lo = float_of_int i /. 50.0 in
      Alcotest.(check bool) "one arrival per interval" true (d >= lo && d < lo +. (1.0 /. 50.0)))
    a

(* ---------------- percentiles ---------------- *)

let test_percentile_refuses_thin_tails () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  (match Pstats.percentile (xs 199) 95.0 with
  | Ok v -> Alcotest.failf "p95 of 199 samples accepted (%g)" v
  | Error _ -> ());
  (match Pstats.percentile (xs 200) 95.0 with
  | Ok v -> Alcotest.(check (float 0.0)) "p95 of 1..200 is the 190th" 190.0 v
  | Error e -> Alcotest.fail e);
  (match Pstats.percentile (xs 19) 50.0 with Ok _ -> Alcotest.fail "p50 of 19" | Error _ -> ());
  match Pstats.percentile (xs 20) 50.0 with
  | Ok v -> Alcotest.(check (float 0.0)) "p50 of 1..20" 10.0 v
  | Error e -> Alcotest.fail e

let test_median () =
  Alcotest.(check (float 0.0)) "even count" 2.5 (Pstats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "odd count" 3.0 (Pstats.median [| 5.0; 1.0; 3.0 |])

(* ---------------- seeded draws ---------------- *)

let batch_fingerprint seed =
  List.map
    (fun ((c : G.case), depth) -> (c.G.name, depth, Circuit.Netlist.digest c.G.netlist))
    (Draw.batch ~noise:Draw.batch_noise ~seed)

let test_batch_draw_is_seeded () =
  Alcotest.(check (list (triple string int string))) "same seed, same draw" (batch_fingerprint 7)
    (batch_fingerprint 7);
  Alcotest.(check bool) "another seed, another draw" true (batch_fingerprint 7 <> batch_fingerprint 8);
  let families s = List.sort compare (List.map (fun (n, _, _) -> String.sub n 0 3) (batch_fingerprint s)) in
  Alcotest.(check (list string)) "same make-up for every seed" (families 7) (families 8);
  List.iter
    (fun ((c : G.case), depth) ->
      Alcotest.(check bool) "expectation known" true (c.G.expect <> None);
      Alcotest.(check bool) "depth capped" true (depth <= Draw.batch_depth_cap))
    (Draw.batch ~noise:Draw.batch_noise ~seed:7)

let mix_fingerprint seed =
  let m = Draw.serve_mix ~seed ~n:300 in
  ( Array.to_list
      (Array.map (fun (r : Draw.request) -> (Draw.kind_string r.Draw.kind, r.Draw.circuit, r.Draw.depth)) m.Draw.requests),
    Array.to_list (Array.map (fun (c : G.case) -> Circuit.Netlist.digest c.G.netlist) m.Draw.circuits) )

let test_serve_mix_is_seeded () =
  Alcotest.(check bool) "same seed, same mix" true (mix_fingerprint 5 = mix_fingerprint 5);
  Alcotest.(check bool) "another seed, another mix" true (mix_fingerprint 5 <> mix_fingerprint 6);
  let m = Draw.serve_mix ~seed:5 ~n:300 in
  let digests = Array.map (fun (c : G.case) -> Circuit.Netlist.digest c.G.netlist) m.Draw.circuits in
  let distinct = List.length (List.sort_uniq compare (Array.to_list digests)) in
  Alcotest.(check int) "cold circuits have distinct digests" (Array.length digests) distinct;
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun (r : Draw.request) ->
      (match r.Draw.kind with
      | Draw.Cold -> Alcotest.(check bool) "cold is new" false (Hashtbl.mem seen r.Draw.circuit)
      | Draw.Repeat | Draw.Extend ->
        Alcotest.(check bool) "repeat/extend is known" true (Hashtbl.mem seen r.Draw.circuit));
      Alcotest.(check bool) "depth within the serve bound" true (r.Draw.depth <= Draw.serve_max_depth);
      Hashtbl.replace seen r.Draw.circuit ())
    m.Draw.requests;
  (* the first three cycles of 16 episodes are staggered (4 + 8 + 12
     requests); from then on every cycle has 4 cold requests, 4 repeats
     and 8 extends *)
  for c = 0 to ((300 - 24) / 16) - 1 do
    let count k =
      List.length
        (List.filter (fun (r : Draw.request) -> r.Draw.kind = k)
           (Array.to_list (Array.sub m.Draw.requests (24 + (16 * c)) 16)))
    in
    Alcotest.(check (list int)) "cycle make-up" [ 4; 4; 8 ] [ count Draw.Cold; count Draw.Repeat; count Draw.Extend ]
  done

let () =
  Alcotest.run "perfbench"
    [
      ( "gate",
        [
          Alcotest.test_case "true answers pass" `Quick test_gate_passes_true_answers;
          Alcotest.test_case "fires on a planted expectation" `Quick test_gate_fires_on_planted_expectation;
          Alcotest.test_case "a wrong answer fails the run" `Quick test_gate_fails_the_run;
          Alcotest.test_case "agreement and served answers" `Quick test_gate_agreement_and_served;
          Alcotest.test_case "replays served traces" `Quick test_gate_replays_served_trace;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "on time" `Quick test_loadgen_on_time;
          Alcotest.test_case "records lateness" `Quick test_loadgen_records_lateness;
          Alcotest.test_case "paced arrivals" `Quick test_paced;
        ] );
      ( "pstats",
        [
          Alcotest.test_case "refuses thin tails" `Quick test_percentile_refuses_thin_tails;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "draw",
        [
          Alcotest.test_case "batch draw is seeded" `Quick test_batch_draw_is_seeded;
          Alcotest.test_case "serve mix is seeded" `Quick test_serve_mix_is_seeded;
        ] );
    ]
