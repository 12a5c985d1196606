type clock = {
  now : unit -> float;
  wait : float -> unit;
}

let paced rng ~rate ~n =
  if not (rate > 0.0) || n < 0 then invalid_arg "Loadgen.paced";
  Array.init n (fun i -> (float_of_int i +. Random.State.float rng 1.0) /. rate)

type run = {
  start : float;
  late : float array;
}

let run clock ~due ~send ~poll =
  let late = Array.make (Array.length due) 0.0 in
  let start = clock.now () in
  Array.iteri
    (fun i d ->
      let rec until_due () =
        poll ();
        let dt = start +. d -. clock.now () in
        if dt > 0.0 then begin
          clock.wait dt;
          until_due ()
        end
      in
      until_due ();
      late.(i) <- clock.now () -. start -. d;
      send i)
    due;
  { start; late }
