(* Passive per-layer readings for the traced run: the Metrics registry
   (counters and histogram buckets, summed over hosts), Resource busy
   integrals, and the runtimes' append statistics. Taken once at window
   start and once after the drain; every per-layer number is a delta
   between the two. Nothing here starts a sampler or a fiber. *)

type snap = {
  at_us : float;
  counters : (string, int) Hashtbl.t;
  hists : (string, int array) Hashtbl.t;
  busy : (string, float * int) Hashtbl.t;  (** resource name -> busy integral, capacity *)
  appends : Tango.Runtime.append_stats list;  (** one per runtime *)
  commits : int;
  aborts : int;
  applied : int;
}

(* The resources whose busy time is reported: the sequencer host's
   NICs and every storage node's SSD in the current projection. *)
let resources cluster =
  let seq_host = Corfu.Sequencer.host (Corfu.Cluster.sequencer cluster) in
  [ ("seq.nic_in", Sim.Net.nic_in seq_host); ("seq.nic_out", Sim.Net.nic_out seq_host) ]
  @ Array.to_list
      (Array.map
         (fun n -> ("ssd:" ^ Corfu.Storage_node.name n, Corfu.Storage_node.ssd n))
         (Corfu.Cluster.storage_nodes cluster))

let take cluster runtimes =
  let counters = Hashtbl.create 64 and hists = Hashtbl.create 16 in
  Sim.Metrics.iter_handles
    ~on_counter:(fun c ->
      let n = Sim.Metrics.counter_name c in
      let prev = Option.value ~default:0 (Hashtbl.find_opt counters n) in
      Hashtbl.replace counters n (prev + Sim.Metrics.counter_value c))
    ~on_gauge:ignore
    ~on_hist:(fun h ->
      let n = Sim.Metrics.hist_name h in
      let acc =
        match Hashtbl.find_opt hists n with
        | Some a -> a
        | None ->
            let a = Array.make Sim.Metrics.num_buckets 0 in
            Hashtbl.replace hists n a;
            a
      in
      let b = Array.make Sim.Metrics.num_buckets 0 in
      Sim.Metrics.hist_buckets_into h b;
      Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) b);
  let busy = Hashtbl.create 32 in
  List.iter
    (fun (n, r) -> Hashtbl.replace busy n (Sim.Resource.busy_time r, Sim.Resource.capacity r))
    (resources cluster);
  let sum f = List.fold_left (fun a rt -> a + f rt) 0 runtimes in
  {
    at_us = Sim.Engine.now ();
    counters;
    hists;
    busy;
    appends = List.map Tango.Runtime.append_stats runtimes;
    commits = sum Tango.Runtime.commits;
    aborts = sum Tango.Runtime.aborts;
    applied = sum Tango.Runtime.applied_records;
  }

let counter a b name =
  let get s = Option.value ~default:0 (Hashtbl.find_opt s.counters name) in
  get b - get a

(* Percentile (µs) of the histogram observations made between [a] and
   [b]; 0 when there were none. *)
let hist_pct a b name p =
  match Hashtbl.find_opt b.hists name with
  | None -> 0.
  | Some hb ->
      let d =
        match Hashtbl.find_opt a.hists name with
        | Some ha -> Array.mapi (fun i v -> v - ha.(i)) hb
        | None -> hb
      in
      let total = Array.fold_left ( + ) 0 d in
      if total <= 0 then 0. else Sim.Metrics.buckets_percentile d ~total p

(* Utilization of resource [name] between the snapshots: busy integral
   over interval × capacity. A resource first seen in [b] (a spare
   installed during the window) counts from zero. *)
let utilization a b name =
  match Hashtbl.find_opt b.busy name with
  | None -> 0.
  | Some (busy_b, cap) ->
      let busy_a = match Hashtbl.find_opt a.busy name with Some (x, _) -> x | None -> 0. in
      let span = b.at_us -. a.at_us in
      if span <= 0. then 0. else (busy_b -. busy_a) /. (span *. float_of_int cap)

let max_utilization a b ~prefix =
  Hashtbl.fold
    (fun n _ acc ->
      if String.starts_with ~prefix n then Float.max acc (utilization a b n) else acc)
    b.busy 0.
