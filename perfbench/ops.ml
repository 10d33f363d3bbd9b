(* Operation accounting: every request the workload sends is one
   attempted operation; a failure is split by cause. A query that misses
   its check because of the documented shared-seed fault (see README) is
   a failure like any other, but does not make the run incorrect. *)

type t = {
  mutable attempted : int;
  mutable wrong : int;  (** answers that failed their check *)
  kinds : (string, int) Hashtbl.t;  (** structured error responses by kind *)
  mutable transport : int;  (** connection or process errors *)
  mutable retries : int;  (** client back-off sleeps (shed or dropped) *)
  mutable known_fault : int;  (** wrong answers caused by the known fault *)
  mutable unexpected : string list;  (** other failures, newest first *)
}

let v =
  {
    attempted = 0;
    wrong = 0;
    kinds = Hashtbl.create 4;
    transport = 0;
    retries = 0;
    known_fault = 0;
    unexpected = [];
  }

let failed () =
  v.wrong + v.transport + Hashtbl.fold (fun _ n acc -> acc + n) v.kinds 0

let correct () = v.unexpected = [] && failed () = v.known_fault

let note msg =
  if List.length v.unexpected < 20 then prerr_endline ("perfbench: " ^ msg);
  v.unexpected <- msg :: v.unexpected

(* A check on server state rather than on one operation (STATS tallies,
   answers across a restart, router against reference). *)
let state ok msg = if not ok then note msg

(* Select-based sleep that counts the client's retries. *)
let sleep ms =
  v.retries <- v.retries + 1;
  Util.sleep_s (float_of_int ms /. 1000.)

(* Account one response. [check] validates a successful answer;
   [known_fault] marks an operation the documented fault makes fail. *)
let record ?(known_fault = false) ~what resp check =
  v.attempted <- v.attempted + 1;
  match resp with
  | Error m ->
      v.transport <- v.transport + 1;
      note (Printf.sprintf "%s: transport error: %s" what m)
  | Ok line when not (Server.Protocol.json_ok line) ->
      let kind =
        Option.value ~default:"error" (Server.Protocol.json_field "kind" line)
      in
      Hashtbl.replace v.kinds kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt v.kinds kind));
      note (Printf.sprintf "%s: %s" what line)
  | Ok line -> (
      match check line with
      | Ok () -> ()
      | Error m ->
          v.wrong <- v.wrong + 1;
          if known_fault then v.known_fault <- v.known_fault + 1
          else note (Printf.sprintf "%s: wrong answer: %s" what m))

let summary () =
  Printf.sprintf
    "operations: attempted=%d failed=%d wrong_answer=%d%s transport=%d \
     retries=%d known_fault=%d"
    v.attempted (failed ()) v.wrong
    (Hashtbl.fold
       (fun k n acc -> acc ^ Printf.sprintf " kind[%s]=%d" k n)
       v.kinds "")
    v.transport v.retries v.known_fault
