(* Shared plumbing of the benchmark: clocks, order statistics, /proc
   readers and scratch directories.  Nothing here calls into Mira. *)

let now = Unix.gettimeofday

(* Linear interpolation between closest ranks, the numpy default. *)
let quantile q xs =
  match Array.length xs with
  | 0 -> 0.0
  | n ->
      let s = Array.copy xs in
      Array.sort compare s;
      let h = q *. float_of_int (n - 1) in
      let lo = truncate h in
      let hi = min (n - 1) (lo + 1) in
      s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median xs = quantile 0.5 xs

let rng seed salt = Random.State.make [| seed; Hashtbl.hash salt |]

(* Minor-heap words allocated by this domain.  Every workload runs its
   measured work on the main domain ([Batch.run ~jobs:1], client
   threads), so the count is the workload's whole allocation. *)
let minor_words () = Gc.minor_words ()

let words_to_mb w = w *. 8.0 /. 1e6

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* user+sys seconds of a process, from fields 14 and 15 of
   /proc/PID/stat (clock ticks; the kernel reports USER_HZ = 100). *)
let proc_cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest =
    String.sub stat
      (String.rindex stat ')' + 2)
      (String.length stat - String.rindex stat ')' - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* [rest] starts at field 3 (state), so field k is f.(k - 3) *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* Set a process's VmHWM back to its current resident set. *)
let reset_peak_rss pid =
  write_file (Printf.sprintf "/proc/%d/clear_refs" pid) "5"

(* CPUs of the machine, whatever this process is pinned to. *)
let online_cpus () =
  List.length
    (List.filter
       (String.starts_with ~prefix:"processor")
       (String.split_on_char '\n' (read_file "/proc/cpuinfo")))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_bytes d =
  Array.fold_left
    (fun acc e ->
      match Unix.stat (Filename.concat d e) with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ -> acc
      | exception Unix.Unix_error _ -> acc)
    0 (Sys.readdir d)

(* ---------- host speed ---------- *)

(* A fixed computation that calls nothing of Mira and allocates
   nothing: 20001 lookups in a prebuilt 20001-entry hash table, then an
   in-place sort of a copied 2048-int array; 1.3 to 2.2 ms.  The host's
   memory speed shifts in phases (README, "Noise"): in a slow phase an
   analyze_cold op takes 1.45 times as long, while a register-only loop
   barely moves.  This computation slows with the same phases, so the
   ratio of an op's time to its time stays put. *)
let ref_table =
  lazy
    (let h = Hashtbl.create 16 in
     for i = 0 to 20_000 do
       Hashtbl.replace h (i * 7919) i
     done;
     h)

let ref_src = lazy (Array.init 2048 (fun i -> i * 104_729 mod 20_011))
let ref_dst = Array.make 2048 0

(* Seconds one run of the reference computation takes now. *)
let reference_s () =
  let tbl = Lazy.force ref_table and src = Lazy.force ref_src in
  let t0 = now () in
  let s = ref 0 in
  for i = 0 to 20_000 do
    s := !s + Hashtbl.find tbl (i * 48_271 mod 20_001 * 7919)
  done;
  Array.blit src 0 ref_dst 0 (Array.length src);
  Array.sort Int.compare ref_dst;
  ignore (Sys.opaque_identity (!s + ref_dst.(0)));
  now () -. t0

(* Run-time configuration shared by every workload. *)
type cfg = {
  seed : int;
  ops : int;  (** timed ops in this run *)
  tmp : string;  (** private scratch directory, removed at exit *)
  mira_exe : string;  (** the built [mira] CLI, for the daemon *)
}
