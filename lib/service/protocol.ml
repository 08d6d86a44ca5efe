(* JSON-lines wire protocol — see the interface for the format. *)

type request = {
  id : string;
  cfg : Tta_model.Configs.t;
  engines : Tta_model.Engine.id list;
  max_depth : int;
  deadline_ms : int option;
  family : string option;
}

let request ~id ~config ?nodes ?engine ?depth ?deadline_ms ?family
    ?forbid_cold_start_duplication () =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  Json.Obj
    ([ ("id", Json.String id); ("config", Json.String config) ]
    @ opt "nodes" (fun n -> Json.Int n) nodes
    @ opt "engine" (fun e -> Json.String e) engine
    @ opt "depth" (fun d -> Json.Int d) depth
    @ opt "deadline_ms" (fun d -> Json.Int d) deadline_ms
    @ opt "family" (fun f -> Json.String f) family
    @ opt "forbid_cold_start_duplication"
        (fun b -> Json.Bool b)
        forbid_cold_start_duplication)

(* ------------------------------------------------------------------ *)
(* Request decoding *)

let ( let* ) = Result.bind

let field name j = Json.member name j

let required_string name j =
  match Option.bind (field name j) Json.string_value with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string field %S" name)

let optional_int name j =
  match field name j with
  | None -> Ok None
  | Some v -> (
      match Json.int_value v with
      | Some i -> Ok (Some i)
      | None -> Error (Printf.sprintf "field %S must be an integer" name))

let optional_string name j =
  match field name j with
  | None -> Ok None
  | Some v -> (
      match Json.string_value v with
      | Some s -> Ok (Some s)
      | None -> Error (Printf.sprintf "field %S must be a string" name))

let optional_bool name j =
  match field name j with
  | None -> Ok None
  | Some v -> (
      match Json.bool_value v with
      | Some b -> Ok (Some b)
      | None -> Error (Printf.sprintf "field %S must be a boolean" name))

let config_of ~feature ~nodes ~forbid =
  match (feature : Guardian.Feature_set.t) with
  | Guardian.Feature_set.Passive -> Tta_model.Configs.passive ?nodes ()
  | Guardian.Feature_set.Time_windows -> Tta_model.Configs.time_windows ?nodes ()
  | Guardian.Feature_set.Small_shifting ->
      Tta_model.Configs.small_shifting ?nodes ()
  | Guardian.Feature_set.Full_shifting ->
      Tta_model.Configs.full_shifting ?nodes
        ?forbid_cold_start_duplication:forbid ()

(* The model is built (and fingerprinted) on the daemon's and the
   router's select loops, and kept for the life of the process; its
   cost grows steeply with the cluster size (tens of milliseconds at 8
   nodes, about 10 s at 64), so the wire bounds it. *)
let max_nodes = 8

let decode_request j =
  match j with
  | Json.Obj _ ->
      let* id = required_string "id" j in
      let* config = required_string "config" j in
      let* feature =
        match Guardian.Feature_set.of_string config with
        | Some fs -> Ok fs
        | None -> Error (Printf.sprintf "unknown config %S" config)
      in
      let* nodes = optional_int "nodes" j in
      let* () =
        match nodes with
        | Some n when n < 2 || n > max_nodes ->
            Error
              (Printf.sprintf "field \"nodes\" must be between 2 and %d"
                 max_nodes)
        | _ -> Ok ()
      in
      let* engines =
        match Option.bind (field "engine" j) Json.string_value with
        | None | Some "race" -> Ok Portfolio.default_engines
        | Some s -> (
            match Tta_model.Engine.id_of_string s with
            | Some e -> Ok [ e ]
            | None ->
                Error
                  (Printf.sprintf "unknown engine %S (expected %s)" s
                     (String.concat " | "
                        (Tta_model.Engine.short_names @ [ "race" ]))))
      in
      let* depth = optional_int "depth" j in
      let* () =
        match depth with
        | Some d when d < 1 -> Error "field \"depth\" must be at least 1"
        | _ -> Ok ()
      in
      let* deadline_ms = optional_int "deadline_ms" j in
      let* () =
        match deadline_ms with
        | Some d when d < 0 -> Error "field \"deadline_ms\" must be >= 0"
        | _ -> Ok ()
      in
      let* forbid = optional_bool "forbid_cold_start_duplication" j in
      let* family = optional_string "family" j in
      Ok
        {
          id;
          cfg = config_of ~feature ~nodes ~forbid;
          engines;
          max_depth = Option.value ~default:24 depth;
          deadline_ms;
          family;
        }
  | _ -> Error "request must be a JSON object"

let decode_request_line line =
  match Json.of_string line with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok j -> decode_request j

(* ------------------------------------------------------------------ *)
(* Incoming classification: verification requests vs. health pings *)

type incoming = Verify of request | Ping of { id : string }

let ping ~id = Json.Obj [ ("id", Json.String id); ("op", Json.String "ping") ]

let decode_incoming j =
  match j with
  | Json.Obj _ -> (
      match Option.bind (field "op" j) Json.string_value with
      | Some "ping" ->
          let* id = required_string "id" j in
          Ok (Ping { id })
      | Some op -> Error (Printf.sprintf "unknown op %S" op)
      | None -> Result.map (fun r -> Verify r) (decode_request j))
  | _ -> Error "request must be a JSON object"

let decode_incoming_line line =
  match Json.of_string line with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok j -> decode_incoming j

let request_id_of_line line =
  match Json.of_string line with
  | Error _ -> None
  | Ok j -> Option.bind (Json.member "id" j) Json.string_value

(* ------------------------------------------------------------------ *)
(* Responses *)

type verdict =
  | Holds of { detail : string }
  | Violated of { steps : int; trace : string list list }
  | Unknown of { detail : string; reason : string option }

type response =
  | Answer of {
      id : string;
      verdict : verdict;
      engine : string;
      cache_hit : bool;
      coalesced : bool;
      wall_ms : float;
      queue_ms : float;
      reused_session : bool;
      warm_depth : int;
    }
  | Degraded of {
      id : string;
      code : string;  (** why no full answer: deadline_exceeded | engine_failed *)
      clean_depth : int;  (** no counterexample up to this depth *)
      engine : string;
      wall_ms : float;
      queue_ms : float;
      reused_session : bool;
      warm_depth : int;
    }
  | Overloaded of { id : string }
  | Cancelled of { id : string; reason : string }
  | Error of { id : string option; code : string; reason : string }
  | Pong of { id : string }

(* The machine-readable rejection codes. Overloaded and Cancelled carry
   theirs implicitly; Error picks between bad_request and
   engine_failed; Degraded between engine_failed and
   deadline_exceeded. *)
let code_overloaded = "overloaded"
let code_draining = "draining"
let code_bad_request = "bad_request"
let code_engine_failed = "engine_failed"
let code_deadline_exceeded = "deadline_exceeded"

let response_id = function
  | Answer { id; _ }
  | Degraded { id; _ }
  | Overloaded { id }
  | Cancelled { id; _ }
  | Pong { id } ->
      Some id
  | Error { id; _ } -> id

let json_of_verdict = function
  | Holds { detail } ->
      [ ("verdict", Json.String "holds"); ("detail", Json.String detail) ]
  | Unknown { detail; reason } ->
      [ ("verdict", Json.String "unknown"); ("detail", Json.String detail) ]
      @ (match reason with
        | Some r -> [ ("reason", Json.String r) ]
        | None -> [])
  | Violated { steps; trace } ->
      [
        ("verdict", Json.String "violated");
        ("trace_steps", Json.Int steps);
        ( "trace",
          Json.List
            (List.map
               (fun state ->
                 Json.List (List.map (fun v -> Json.String v) state))
               trace) );
      ]

let encode_response = function
  | Answer
      {
        id;
        verdict;
        engine;
        cache_hit;
        coalesced;
        wall_ms;
        queue_ms;
        reused_session;
        warm_depth;
      } ->
      Json.Obj
        ([ ("id", Json.String id); ("status", Json.String "ok") ]
        @ json_of_verdict verdict
        @ [
            ("engine", Json.String engine);
            ("cache_hit", Json.Bool cache_hit);
            ("coalesced", Json.Bool coalesced);
            ("wall_ms", Json.Float wall_ms);
            ("queue_ms", Json.Float queue_ms);
            ("reused_session", Json.Bool reused_session);
            ("warm_depth", Json.Int warm_depth);
          ])
  | Degraded
      {
        id;
        code;
        clean_depth;
        engine;
        wall_ms;
        queue_ms;
        reused_session;
        warm_depth;
      } ->
      Json.Obj
        [
          ("id", Json.String id);
          ("status", Json.String "degraded");
          ("code", Json.String code);
          ("clean_depth", Json.Int clean_depth);
          ( "detail",
            Json.String
              (Printf.sprintf "no counterexample up to depth %d" clean_depth) );
          ("engine", Json.String engine);
          ("wall_ms", Json.Float wall_ms);
          ("queue_ms", Json.Float queue_ms);
          ("reused_session", Json.Bool reused_session);
          ("warm_depth", Json.Int warm_depth);
        ]
  | Overloaded { id } ->
      Json.Obj
        [
          ("id", Json.String id);
          ("status", Json.String "overloaded");
          ("code", Json.String code_overloaded);
        ]
  | Cancelled { id; reason } ->
      Json.Obj
        [
          ("id", Json.String id);
          ("status", Json.String "cancelled");
          ("code", Json.String code_draining);
          ("reason", Json.String reason);
        ]
  | Error { id; code; reason } ->
      Json.Obj
        ((match id with Some id -> [ ("id", Json.String id) ] | None -> [])
        @ [
            ("status", Json.String "error");
            ("code", Json.String code);
            ("reason", Json.String reason);
          ])
  | Pong { id } ->
      Json.Obj [ ("id", Json.String id); ("status", Json.String "pong") ]

let response_line r = Json.to_string (encode_response r) ^ "\n"

(* [Error] below is shadowed by the response constructor, hence the
   explicit result annotations on the remaining decoders. *)

let number name j : (float, string) result =
  match field name j with
  | Some v -> (
      match (Json.float_value v, Json.int_value v) with
      | Some f, _ -> Ok f
      | None, Some i -> Ok (float_of_int i)
      | None, None ->
          Result.Error (Printf.sprintf "field %S must be a number" name))
  | None -> Result.Error (Printf.sprintf "missing field %S" name)

let required_bool name j : (bool, string) result =
  match Option.bind (field name j) Json.bool_value with
  | Some b -> Ok b
  | None ->
      Result.Error (Printf.sprintf "missing or non-boolean field %S" name)

let decode_verdict j : (verdict, string) result =
  match Option.bind (field "verdict" j) Json.string_value with
  | Some "holds" ->
      let detail =
        Option.value ~default:""
          (Option.bind (field "detail" j) Json.string_value)
      in
      Ok (Holds { detail })
  | Some "unknown" ->
      let detail =
        Option.value ~default:""
          (Option.bind (field "detail" j) Json.string_value)
      in
      let reason = Option.bind (field "reason" j) Json.string_value in
      Ok (Unknown { detail; reason })
  | Some "violated" ->
      let trace =
        match field "trace" j with
        | None -> []
        | Some tr ->
            List.map
              (fun state ->
                List.filter_map Json.string_value (Json.to_list state))
              (Json.to_list tr)
      in
      let steps =
        Option.value ~default:(List.length trace)
          (Option.bind (field "trace_steps" j) Json.int_value)
      in
      Ok (Violated { steps; trace })
  | Some v -> Result.Error (Printf.sprintf "unknown verdict %S" v)
  | None -> Result.Error "missing field \"verdict\""

let decode_response j : (response, string) result =
  match j with
  | Json.Obj _ -> (
      let id = Option.bind (field "id" j) Json.string_value in
      match Option.bind (field "status" j) Json.string_value with
      | Some "ok" ->
          let* id =
            match id with
            | Some id -> Ok id
            | None -> Error "missing field \"id\""
          in
          let* verdict = decode_verdict j in
          let* engine = required_string "engine" j in
          let* cache_hit = required_bool "cache_hit" j in
          let* coalesced = required_bool "coalesced" j in
          let* wall_ms = number "wall_ms" j in
          let* queue_ms = number "queue_ms" j in
          (* Optional for compatibility with pre-session daemons. *)
          let reused_session =
            Option.value ~default:false
              (Option.bind (field "reused_session" j) Json.bool_value)
          in
          let warm_depth =
            Option.value ~default:0
              (Option.bind (field "warm_depth" j) Json.int_value)
          in
          Ok
            (Answer
               {
                 id;
                 verdict;
                 engine;
                 cache_hit;
                 coalesced;
                 wall_ms;
                 queue_ms;
                 reused_session;
                 warm_depth;
               })
      | Some "degraded" ->
          let* id =
            match id with
            | Some id -> Ok id
            | None -> Error "missing field \"id\""
          in
          let* code = required_string "code" j in
          let* clean_depth =
            match Option.bind (field "clean_depth" j) Json.int_value with
            | Some d -> Ok d
            | None -> Error "missing or non-integer field \"clean_depth\""
          in
          let* engine = required_string "engine" j in
          let* wall_ms = number "wall_ms" j in
          let* queue_ms = number "queue_ms" j in
          let reused_session =
            Option.value ~default:false
              (Option.bind (field "reused_session" j) Json.bool_value)
          in
          let warm_depth =
            Option.value ~default:0
              (Option.bind (field "warm_depth" j) Json.int_value)
          in
          Ok
            (Degraded
               {
                 id;
                 code;
                 clean_depth;
                 engine;
                 wall_ms;
                 queue_ms;
                 reused_session;
                 warm_depth;
               })
      | Some "overloaded" ->
          let* id =
            match id with
            | Some id -> Ok id
            | None -> Error "missing field \"id\""
          in
          Ok (Overloaded { id })
      | Some "cancelled" ->
          let* id =
            match id with
            | Some id -> Ok id
            | None -> Error "missing field \"id\""
          in
          let* reason = required_string "reason" j in
          Ok (Cancelled { id; reason })
      | Some "pong" ->
          let* id =
            match id with
            | Some id -> Ok id
            | None -> Error "missing field \"id\""
          in
          Ok (Pong { id })
      | Some "error" ->
          let* reason = required_string "reason" j in
          (* Pre-code daemons sent errors only for unparseable input. *)
          let code =
            Option.value ~default:code_bad_request
              (Option.bind (field "code" j) Json.string_value)
          in
          Ok (Error { id; code; reason })
      | Some s -> Result.Error (Printf.sprintf "unknown status %S" s)
      | None -> Result.Error "missing field \"status\"")
  | _ -> Result.Error "response must be a JSON object"

let decode_response_line line =
  match Json.of_string line with
  | Result.Error e -> Result.Error ("invalid JSON: " ^ e)
  | Ok j -> decode_response j
