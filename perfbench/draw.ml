module G = Circuit.Generators

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let batch_families =
  [
    (fun ~noise -> G.shift_in ~len:12 ~noise ());
    (fun ~noise -> G.fifo_overflow ~bits:3 ~noise ());
    (fun ~noise -> G.counter_en ~bits:4 ~target:12 ~noise ());
    (fun ~noise -> G.ring ~len:12 ~noise ());
    (fun ~noise -> G.lfsr ~width:14 ~noise ());
    (fun ~noise -> G.arbiter ~clients:8 ~noise ());
    (fun ~noise -> G.fifo_safe ~bits:4 ~noise ());
    (fun ~noise -> G.priority_arbiter ~clients:12 ~noise ());
    (fun ~noise -> G.johnson ~width:10 ~noise ());
    (* 3 bits: at 4 its standard sweeps were a third of the ordering's
       sum, and their swings from seed to seed most of its spread *)
    (fun ~noise -> G.elevator ~bits:3 ~noise ());
  ]

let batch_noise = [| 4; 16 |]
let batch_jitter = 4
let batch_depth_cap = 12

(* Per family and base, two neighbouring noise levels from a seeded
   offset.  A property's cost under one ordering can swing twofold from
   one level to the next (the 4-bit elevator under standard, persistent:
   0.08 to 0.15 s); with two levels per family, such swings add half as
   much to a sum's seed-to-seed variance, relative to the sum. *)
let batch ~noise ~seed =
  let rng = Random.State.make [| seed; 0xba7c4 |] in
  let cases =
    Array.of_list
      (List.concat_map
         (fun make ->
           List.concat_map
             (fun base ->
               let level = base + Random.State.int rng batch_jitter in
               List.map
                 (fun noise ->
                   let c = make ~noise in
                   (c, min batch_depth_cap c.G.suggested_depth))
                 [ level; level + 1 ])
             (Array.to_list noise))
         batch_families)
  in
  shuffle rng cases;
  Array.to_list cases

type kind =
  | Cold
  | Repeat
  | Extend

type request = {
  kind : kind;
  circuit : int;
  depth : int;
}

type mix = {
  circuits : G.case array;
  requests : request array;
}

let kind_string = function Cold -> "cold" | Repeat -> "repeat" | Extend -> "extend"

let serve_families =
  [
    ([ 12; 16; 20 ], fun ~size ~noise -> G.counter ~bits:5 ~target:size ~noise ());
    ([ 10; 12; 14 ], fun ~size ~noise -> G.counter_en ~bits:4 ~target:size ~noise ());
    ([ 8; 10; 12 ], fun ~size ~noise -> G.shift_in ~len:size ~noise ());
    ([ 3; 4 ], fun ~size ~noise -> G.watchdog ~bits:size ~noise ());
    ([ 2; 3 ], fun ~size ~noise -> G.fifo_overflow ~bits:size ~noise ());
    ([ 6; 8; 10 ], fun ~size ~noise -> G.ring ~len:size ~noise ());
    ([ 8; 10; 12 ], fun ~size ~noise -> G.lfsr ~width:size ~noise ());
    ([ 6; 8; 10 ], fun ~size ~noise -> G.johnson ~width:size ~noise ());
    ([ 4; 6; 8 ], fun ~size ~noise -> G.arbiter ~clients:size ~noise ());
    ([ 3; 4 ], fun ~size ~noise -> G.fifo_safe ~bits:size ~noise ());
    ([ 4; 6; 8 ], fun ~size ~noise -> G.priority_arbiter ~clients:size ~noise ());
    ([ 0 ], fun ~size:_ ~noise -> G.traffic ~noise ());
  ]

(* Serve noise levels: [noise_lo, noise_lo + noise_span). *)
let noise_lo = 8
let noise_span = 8

(* A circuit's episode: cold at [step], extends [step] deeper each time up
   to [serve_max_depth], then one repeat. *)
let step = 3
let serve_max_depth = 9
let episodes = 16

let serve_combos () =
  Array.of_list
    (List.concat_map
       (fun (sizes, make) -> List.map (fun size -> (make, size)) sizes)
       serve_families)

let serve_combos_count = Array.length (serve_combos ())

let serve_mix ~seed ~n =
  let rng = Random.State.make [| seed; 0x5e27e |] in
  let combos = serve_combos () in
  (* per (family, size), its noise levels in a seeded order, cycled *)
  let noises =
    Array.map
      (fun _ ->
        let a = Array.init noise_span (fun i -> noise_lo + i) in
        shuffle rng a;
        a)
      combos
  in
  let drawn = Array.make (Array.length combos) 0 in
  let next_noise c =
    drawn.(c) <- drawn.(c) + 1;
    noises.(c).((drawn.(c) - 1) mod noise_span)
  in
  (* cold circuits visit every (family, size) once per block, in a seeded
     order *)
  let block = Array.init (Array.length combos) Fun.id in
  let circuits = ref [] and ncirc = ref 0 in
  let cold () =
    let pos = !ncirc mod Array.length block in
    if pos = 0 then shuffle rng block;
    let make, size = combos.(block.(pos)) in
    circuits := make ~size ~noise:(next_noise block.(pos)) :: !circuits;
    incr ncirc;
    { kind = Cold; circuit = !ncirc - 1; depth = step }
  in
  (* [episodes] slots, each holding the last request of a running episode *)
  let slots = Array.make episodes None in
  (* Slots take turns in cycles, each cycle in a seeded order, and slot [s]
     joins in cycle [s mod episode_len]: from then on every cycle holds
     the same number of requests of each step of an episode. *)
  let episode_len = (serve_max_depth / step) + 1 in
  let turns = Queue.create () and cycle = ref 0 in
  let rec next_slot () =
    match Queue.take_opt turns with
    | Some s -> s
    | None ->
      let order = Array.init episodes Fun.id in
      shuffle rng order;
      Array.iter (fun s -> if !cycle >= s mod episode_len then Queue.add s turns) order;
      incr cycle;
      next_slot ()
  in
  let next _ =
    let s = next_slot () in
    let r =
      match slots.(s) with
      | None | Some { kind = Repeat; _ } -> cold ()
      | Some last when last.depth + step <= serve_max_depth ->
        { last with kind = Extend; depth = last.depth + step }
      | Some last -> { last with kind = Repeat }
    in
    slots.(s) <- Some r;
    r
  in
  let requests = Array.init n next in
  { circuits = Array.of_list (List.rev !circuits); requests }
