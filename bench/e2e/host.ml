(* The host fingerprint every result file carries, and the memory
   high-water mark read from /proc.  Two result files are comparable
   only when their fingerprints are equal. *)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let lines path = String.split_on_char '\n' (read_file path)

(* The value after the first ':' of the first line starting with [key]. *)
let field path key =
  match List.find_opt (String.starts_with ~prefix:key) (lines path) with
  | None -> ""
  | Some l -> (
      match String.index_opt l ':' with
      | None -> ""
      | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1)))

let fingerprint () =
  let flags = String.split_on_char ' ' (field "/proc/cpuinfo" "flags") in
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("cpu_model", field "/proc/cpuinfo" "model name");
    ("kernel", String.trim (read_file "/proc/sys/kernel/osrelease"));
    ("ocaml", Sys.ocaml_version);
    ("hypervisor", string_of_bool (List.mem "hypervisor" flags));
  ]

(* This process's VmHWM in kB; 0 if unreadable. *)
let hwm_kb () =
  match String.split_on_char ' ' (field "/proc/self/status" "VmHWM") with
  | n :: _ -> Option.value (int_of_string_opt n) ~default:0
  | [] -> 0
