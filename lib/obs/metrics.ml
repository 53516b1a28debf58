(* Counters and fixed-bucket histograms in a named registry. The update
   paths ([inc]/[add]/[observe]) touch mutable ints only; everything
   else runs at export time. *)

type counter = { c_name : string; mutable v : int }

type histogram = {
  h_name : string;
  bounds : int array; (* inclusive upper bounds, strictly increasing *)
  counts : int array; (* length bounds + 1; last cell = overflow *)
  mutable sum : int;
  mutable n : int;
  mutable max_v : int;
  mutable min_v : int;
}

type item = Counter of counter | Histogram of histogram

type registry = {
  tbl : (string, item) Hashtbl.t;
  mutable order : string list; (* reverse registration order *)
}

let create () = { tbl = Hashtbl.create 32; order = [] }

let register reg name item =
  Hashtbl.replace reg.tbl name item;
  reg.order <- name :: reg.order

let counter reg name =
  match Hashtbl.find_opt reg.tbl name with
  | Some (Counter c) -> c
  | Some (Histogram _) ->
      invalid_arg ("Metrics.counter: " ^ name ^ " is a histogram")
  | None ->
      let c = { c_name = name; v = 0 } in
      register reg name (Counter c);
      c

let histogram reg name ~bounds =
  match Hashtbl.find_opt reg.tbl name with
  | Some (Histogram h) -> h
  | Some (Counter _) ->
      invalid_arg ("Metrics.histogram: " ^ name ^ " is a counter")
  | None ->
      if Array.length bounds = 0 then
        invalid_arg "Metrics.histogram: empty bounds";
      Array.iteri
        (fun i b ->
          if i > 0 && b <= bounds.(i - 1) then
            invalid_arg "Metrics.histogram: bounds not increasing")
        bounds;
      let h =
        {
          h_name = name;
          bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          sum = 0;
          n = 0;
          max_v = min_int;
          min_v = max_int;
        }
      in
      register reg name (Histogram h);
      h

let inc c = c.v <- c.v + 1
let add c n = c.v <- c.v + n
let value c = c.v

let observe h v =
  let nb = Array.length h.bounds in
  let rec idx i = if i >= nb || v <= h.bounds.(i) then i else idx (i + 1) in
  let i = idx 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum + v;
  h.n <- h.n + 1;
  if v > h.max_v then h.max_v <- v;
  if v < h.min_v then h.min_v <- v

let hist_count h = h.n
let hist_sum h = h.sum
let bucket_counts h = Array.copy h.counts

let latency_buckets_ns =
  [| 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000 |]

let size_buckets = [| 64; 256; 1_024; 4_096; 16_384; 65_536; 262_144 |]

let items_in_order reg =
  List.rev_map (fun name -> Hashtbl.find reg.tbl name) reg.order

let to_text reg =
  let b = Buffer.create 512 in
  List.iter
    (function
      | Counter c -> Buffer.add_string b (Printf.sprintf "%-28s %d\n" c.c_name c.v)
      | Histogram h ->
          let mean = if h.n = 0 then 0. else float h.sum /. float h.n in
          Buffer.add_string b
            (Printf.sprintf "%-28s count=%d sum=%d mean=%.1f" h.h_name h.n h.sum
               mean);
          Buffer.add_string b " buckets=[";
          Array.iteri
            (fun i c ->
              if i > 0 then Buffer.add_char b ' ';
              if i < Array.length h.bounds then
                Buffer.add_string b (Printf.sprintf "<=%d:%d" h.bounds.(i) c)
              else Buffer.add_string b (Printf.sprintf "inf:%d" c))
            h.counts;
          Buffer.add_string b "]\n")
    (items_in_order reg);
  Buffer.contents b

let to_json_items reg =
  List.concat_map
    (function
      | Counter c -> [ (c.c_name, float c.v) ]
      | Histogram h ->
          let mean = if h.n = 0 then 0. else float h.sum /. float h.n in
          [
            (h.h_name ^ ".count", float h.n);
            (h.h_name ^ ".sum", float h.sum);
            (h.h_name ^ ".mean", mean);
            (h.h_name ^ ".max", float (if h.n = 0 then 0 else h.max_v));
          ])
    (items_in_order reg)
