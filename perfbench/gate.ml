type verdict =
  | Falsified of int
  | Passed of int
  | Aborted of int

let verdict_string = function
  | Falsified k -> Printf.sprintf "falsified@%d" k
  | Passed k -> Printf.sprintf "passed@%d" k
  | Aborted k -> Printf.sprintf "aborted@%d" k

let decided = function Falsified _ | Passed _ -> true | Aborted _ -> false

let of_session = function
  | Bmc.Session.Falsified tr -> Falsified tr.Bmc.Trace.depth
  | Bmc.Session.Bounded_pass k -> Passed k
  | Bmc.Session.Aborted k -> Aborted k

let of_served = function
  | Serve.Protocol.Falsified (k, _) -> Falsified k
  | Serve.Protocol.Bounded_pass k -> Passed k
  | Serve.Protocol.Aborted k -> Aborted k

let expected e ~depth =
  match e with
  | None -> None
  | Some Circuit.Generators.Holds -> Some (Passed depth)
  | Some (Circuit.Generators.Fails_at k) -> Some (if k <= depth then Falsified k else Passed depth)

let mismatch what v want =
  Error (Printf.sprintf "%s %s, expected %s" what (verdict_string v) (verdict_string want))

let check_expect e ~depth v =
  match expected e ~depth with
  | Some want when decided v && v <> want -> mismatch "verdict" v want
  | _ -> Ok ()

let check_agree named =
  match List.filter (fun (_, v) -> decided v) named with
  | [] -> Ok ()
  | (n0, v0) :: rest -> (
    match List.find_opt (fun (_, v) -> v <> v0) rest with
    | None -> Ok ()
    | Some (n, v) ->
      Error
        (Printf.sprintf "%s says %s but %s says %s" n0 (verdict_string v0) n (verdict_string v)))

let at_depth v ~depth =
  match v with
  | Falsified k -> Some (if k <= depth then Falsified k else Passed depth)
  | Passed d -> if depth <= d then Some (Passed depth) else None
  | Aborted k -> if depth < k then Some (Passed depth) else None

let check_served ~batch ~depth v =
  match at_depth batch ~depth with
  | Some want when decided v && v <> want -> mismatch "served" v want
  | _ -> Ok ()

let replay_served ~text json =
  match Circuit.Textio.parse_string text with
  | exception Circuit.Textio.Parse_error msg -> Error ("unparsable circuit: " ^ msg)
  | netlist, property -> (
    let node label =
      if String.length label > 1 && label.[0] = '#' then
        int_of_string_opt (String.sub label 1 (String.length label - 1))
      else Circuit.Netlist.find netlist label
    in
    let assignment j =
      Option.bind (Obs.Json.to_list j) (fun pairs ->
          List.fold_right
            (fun p acc ->
              match (acc, Obs.Json.to_list p) with
              | Some acc, Some [ l; b ] -> (
                match (Option.bind (Obs.Json.to_str l) node, Obs.Json.to_bool b) with
                | Some n, Some b -> Some ((n, b) :: acc)
                | _ -> None)
              | _ -> None)
            pairs (Some []))
    in
    let depth = Obs.Json.get_int ~default:(-1) json "depth" in
    let init = Option.bind (Obs.Json.member "init" json) assignment in
    let frames = List.map assignment (Obs.Json.get_list json "frames") in
    match (init, List.for_all Option.is_some frames) with
    | Some init_regs, true when depth >= 0 && List.length frames = depth + 1 ->
      let tr =
        { Bmc.Trace.depth; init_regs; inputs = Array.of_list (List.map Option.get frames) }
      in
      if Bmc.Trace.replay tr netlist ~property then Ok ()
      else Error (Printf.sprintf "served counterexample at depth %d does not replay" depth)
    | _ -> Error "malformed served trace")

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let operation t what checks =
  t.attempted <- t.attempted + 1;
  let errs = List.filter_map (function Ok () -> None | Error e -> Some e) checks in
  if errs <> [] then begin
    t.failed <- t.failed + 1;
    List.iter (fun e -> Printf.eprintf "perfbench: WRONG ANSWER: %s: %s\n%!" what e) errs
  end

let failed t = t.failed

let result t ~metrics =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool (t.failed = 0 && t.attempted > 0));
      ("attempted", Obs.Json.Int (max 1 t.attempted));
      ("failed", Obs.Json.Int t.failed);
      ("metrics", Obs.Json.Obj metrics);
    ]
