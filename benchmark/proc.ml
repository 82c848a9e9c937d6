(* Child processes measured over their whole process tree. *)

external wait4 : int -> int * int * float * int = "wpbench_wait4"

type usage = {
  code : int;  (* exit status, or -signal *)
  wall_s : float;
  cpu_s : float;  (* user + sys over the child and the workers it waited for *)
  maxrss_kb : int;  (* largest resident set in that tree *)
}

(* Children still running, killed if the benchmark stops early. *)
let live : int list ref = ref []

let kill_live () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !live

let () =
  at_exit kill_live;
  (* A child that outlives its deadline is killed by the alarm; the
     interrupted wait4 then returns and is retried. *)
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> kill_live ()))

let spawn exe args ~stdin ~stdout ~stderr =
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) stdin stdout stderr in
  live := pid :: !live;
  pid

(* Block until [pid] exits; SIGKILL it once [timeout] seconds pass. *)
let reap ?timeout pid =
  Option.iter (fun s -> ignore (Unix.alarm (Int.max 1 (int_of_float (Float.ceil s))))) timeout;
  let rec go () =
    match wait4 pid with
    | -1, _, _, _ -> go ()
    | _, code, cpu, rss -> (code, cpu, rss)
  in
  let r = go () in
  ignore (Unix.alarm 0);
  live := List.filter (( <> ) pid) !live;
  r

(* This process's resident high-water mark (VmHWM), in kB. Linux folds
   the pre-exec image's high-water mark into a child's ru_maxrss, and a
   spawned child's pre-exec image is this process, so a child's figure
   is only its own while it exceeds this one. *)
let self_hwm_kb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> go ()
        | exception End_of_file -> 0
      in
      go ())

let dev_null () = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0

(* Run [exe args] to completion with stdout and stderr sent to files. *)
let run ?timeout ~out ~err exe args =
  let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] in
  let fin = dev_null () in
  let fout = Unix.openfile out flags 0o644 in
  let ferr = Unix.openfile err flags 0o644 in
  let t0 = Unix.gettimeofday () in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ fin; fout; ferr ])
      (fun () -> spawn exe args ~stdin:fin ~stdout:fout ~stderr:ferr)
  in
  let code, cpu_s, maxrss_kb = reap ?timeout pid in
  { code; wall_s = Unix.gettimeofday () -. t0; cpu_s; maxrss_kb }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end
