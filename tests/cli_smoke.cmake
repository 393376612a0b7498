# End-to-end dbitool smoke test, run by CTest:
#   cmake -DDBITOOL=<path> -DWORK_DIR=<dir> -P cli_smoke.cmake
# Drives gen / stats / record / inspect / replay / convert through real
# files and asserts the documented exit codes, including the distinct
# unknown-command code.

if(NOT DEFINED DBITOOL OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DDBITOOL=... -DWORK_DIR=... -P cli_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_dbitool expected_rc)
  execute_process(
    COMMAND ${DBITOOL} ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expected_rc})
    message(FATAL_ERROR
            "dbitool ${ARGN}: expected exit ${expected_rc}, got ${rc}\n"
            "stdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

# Text pipeline: gen -> stats -> encode.
run_dbitool(0 gen --source sparse --bursts 500 --seed 3 -o trace.txt)
run_dbitool(0 stats trace.txt)
run_dbitool(0 encode trace.txt --scheme opt-fixed)
run_dbitool(0 encode trace.txt --scheme exhaustive)  # every table slug

# Binary pipeline: record -> inspect -> replay (corpus and generator).
run_dbitool(0 record --corpus float-tensor --bursts 2000 --seed 5 -o t.dbt)
run_dbitool(0 inspect t.dbt)
run_dbitool(0 replay t.dbt --lanes 4 --workers 2)
run_dbitool(0 replay t.dbt --scheme ac --lanes 1 --csv)
run_dbitool(0 record --source uniform --bursts 100 --seed 1 --no-compress
            -o u.dbt)
run_dbitool(0 corpus)

# Wide multi-group pipeline: record (explicit --wide and implied by
# width > 32) -> inspect -> replay; wide traces refuse text conversion.
run_dbitool(0 record --corpus cacheline-memcpy --width 16 --wide
            --bursts 1000 --seed 7 -o w16.dbt)
run_dbitool(0 record --corpus framebuffer --width 64 --bursts 1000
            --seed 7 -o w64.dbt)
run_dbitool(0 inspect w64.dbt)
run_dbitool(0 replay w64.dbt --lanes 2 --workers 2)
run_dbitool(0 replay w16.dbt --scheme ac --lanes 1 --csv)
run_dbitool(0 corpus --width 32 --bursts 512)
run_dbitool(1 convert w64.dbt wide.txt)  # wide traces are binary-only
run_dbitool(1 record --corpus float-tensor --width 65 --bursts 10
            -o bad.dbt)                  # width beyond the 64-lane bus

# Encoded pipeline: record --encode -> inspect -> verify -> decode; the
# decoded trace must carry the exact payload of a plain recording of the
# same stream (checked through the lossless text conversion).
run_dbitool(0 record --corpus float-tensor --bursts 2000 --seed 5
            --encode ac --lanes 4 -o enc.dbt)
run_dbitool(0 inspect enc.dbt)
run_dbitool(0 verify enc.dbt)
run_dbitool(0 decode enc.dbt -o dec.dbt)
run_dbitool(0 verify t.dbt --scheme ac --lanes 4 --csv)  # round-trip mode
run_dbitool(0 convert dec.dbt dec.txt)
run_dbitool(0 convert t.dbt plain.txt)
file(READ "${WORK_DIR}/dec.txt" text_dec)
file(READ "${WORK_DIR}/plain.txt" text_plain)
if(NOT text_dec STREQUAL text_plain)
  message(FATAL_ERROR "record --encode -> decode changed the payload")
endif()
# Wide encoded round trip, reset state policy, and misuse errors.
run_dbitool(0 record --corpus framebuffer --width 64 --bursts 500 --seed 9
            --encode acdc --reset -o wenc.dbt)
run_dbitool(0 verify wenc.dbt --workers 2)
run_dbitool(0 decode wenc.dbt -o wdec.dbt --workers 2)
# One-group wide round trip: --wide --width 8 is one DBI group, and the
# file keeps that geometry through record --encode -> decode (header
# byte 16 = 1, so inspect reports it wide).
run_dbitool(0 record --corpus mixed --wide --width 8 --bursts 600 --seed 4
            --encode ac -o w8enc.dbt)
run_dbitool(0 verify w8enc.dbt)
run_dbitool(0 decode w8enc.dbt -o w8dec.dbt)
execute_process(
  COMMAND ${DBITOOL} inspect w8dec.dbt --json
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE w8_inspect_rc
  OUTPUT_VARIABLE w8_inspect_json)
if(NOT w8_inspect_rc EQUAL 0 OR NOT w8_inspect_json MATCHES "\"wide\": true")
  message(FATAL_ERROR
          "decode lost the one-group wide geometry:\n${w8_inspect_json}")
endif()
run_dbitool(1 decode t.dbt -o nope.dbt)    # plain traces have no masks
run_dbitool(1 replay enc.dbt)              # encoded traces don't re-encode
run_dbitool(1 convert enc.dbt enc.txt)     # ... and don't convert to text
run_dbitool(64 verify enc.dbt --lanse 4)   # unknown flag, named

# Conversion both ways must agree with the original text trace.
run_dbitool(0 convert trace.txt roundtrip.dbt)
run_dbitool(0 convert roundtrip.dbt roundtrip.txt)
run_dbitool(0 stats roundtrip.txt)
file(READ "${WORK_DIR}/trace.txt" text_a)
file(READ "${WORK_DIR}/roundtrip.txt" text_b)
if(NOT text_a STREQUAL text_b)
  message(FATAL_ERROR "text -> binary -> text round trip changed the trace")
endif()

# Kernel registry surface: the listing must name the always-available
# portable reference, a pinned portable kernel must replay bit-exactly,
# and a typo'd kernel name is a usage error (exit 64), not a runtime one.
run_dbitool(0 kernels)
run_dbitool(0 kernels --csv)
execute_process(
  COMMAND ${DBITOOL} kernels --csv
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE kernels_rc
  OUTPUT_VARIABLE kernels_out)
if(NOT kernels_out MATCHES "swar")
  message(FATAL_ERROR "dbitool kernels does not list the portable 'swar' "
          "variant:\n${kernels_out}")
endif()
run_dbitool(0 replay t.dbt --kernel swar --lanes 2)
run_dbitool(0 replay w64.dbt --kernel auto --workers 2)
run_dbitool(64 replay t.dbt --kernel frobnicate)   # unknown kernel name
run_dbitool(64 replay t.dbt --scheme nope)         # unknown scheme slug
run_dbitool(64 record --corpus mixed --bursts 8 --encode nope -o n.dbt)
run_dbitool(64 kernels --kernel swar)              # kernels takes no flags

# Observability surface: --metrics / --trace-json on the engine
# subcommands must leave non-empty files behind, `stats` must render a
# metrics snapshot, and inspect --json must emit machine-readable
# metadata.
run_dbitool(0 replay t.dbt --scheme opt --lanes 2 --workers 2
            --metrics obs.json --trace-json obs_trace.json)
foreach(artifact obs.json obs_trace.json)
  if(NOT EXISTS "${WORK_DIR}/${artifact}")
    message(FATAL_ERROR "replay did not write ${artifact}")
  endif()
  file(SIZE "${WORK_DIR}/${artifact}" artifact_size)
  if(artifact_size EQUAL 0)
    message(FATAL_ERROR "replay wrote an empty ${artifact}")
  endif()
endforeach()
file(READ "${WORK_DIR}/obs.json" obs_json)
if(NOT obs_json MATCHES "dbi_bursts_total")
  message(FATAL_ERROR "metrics snapshot lacks dbi_bursts_total:\n${obs_json}")
endif()
file(READ "${WORK_DIR}/obs_trace.json" obs_trace)
if(NOT obs_trace MATCHES "traceEvents")
  message(FATAL_ERROR "span trace is not Chrome trace_event JSON")
endif()
run_dbitool(0 stats obs.json)            # snapshot renders as a table
run_dbitool(0 stats obs.json --csv)
run_dbitool(0 verify enc.dbt --metrics vm.prom)
file(READ "${WORK_DIR}/vm.prom" verify_prom)
if(NOT verify_prom MATCHES "# TYPE dbi_runs_total counter")
  message(FATAL_ERROR ".prom metrics are not Prometheus text:\n${verify_prom}")
endif()
# Trace I/O counters reach every direction, not only replay: a round-trip
# verify of an RLE'd recording publishes its RLE chunk count.
run_dbitool(0 record --corpus cacheline-memcpy --bursts 2000 --seed 5
            -o rle.dbt)
run_dbitool(0 verify rle.dbt --metrics v.prom)
file(READ "${WORK_DIR}/v.prom" rle_prom)
if(NOT rle_prom MATCHES "dbi_trace_rle_chunks_total [1-9]")
  message(FATAL_ERROR "verify published no RLE chunks:\n${rle_prom}")
endif()
run_dbitool(0 record --source uniform --bursts 200 --seed 2 -o om.dbt
            --metrics rec_metrics.json)
run_dbitool(0 decode enc.dbt -o obsdec.dbt --metrics dec_metrics.json
            --trace-json dec_trace.json)
run_dbitool(64 gen --metrics m.json --source uniform --bursts 1 -o g.txt)

# inspect --json: machine-readable, stable keys.
execute_process(
  COMMAND ${DBITOOL} inspect enc.dbt --json
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE inspect_rc
  OUTPUT_VARIABLE inspect_json)
if(NOT inspect_rc EQUAL 0)
  message(FATAL_ERROR "inspect --json failed: ${inspect_rc}")
endif()
foreach(key "\"format\": \"dbt2\"" "\"bursts\": 2000" "\"encoded\": {"
        "\"crc\": \"ok\"")
  if(NOT inspect_json MATCHES "${key}")
    message(FATAL_ERROR "inspect --json lacks ${key}:\n${inspect_json}")
  endif()
endforeach()

# Adaptive scheme selection: record --select writes a self-describing
# mixed trace (format v3) that inspect / verify / decode all accept,
# replay and corpus take the same flags, and --report leaves a JSON
# session report behind. Value errors in the new flags are usage
# errors (exit 64), not runtime ones.
run_dbitool(0 record --corpus mixed --bursts 2048 --seed 11
            --select exact:dc,ac --cost energy -o sel.dbt
            --report sel_report.json)
run_dbitool(0 inspect sel.dbt)
run_dbitool(0 verify sel.dbt)
run_dbitool(0 decode sel.dbt -o sel_dec.dbt)
run_dbitool(0 record --corpus mixed --bursts 2048 --seed 11 -o sel_plain.dbt)
run_dbitool(0 convert sel_dec.dbt sel_dec.txt)
run_dbitool(0 convert sel_plain.dbt sel_plain.txt)
file(READ "${WORK_DIR}/sel_dec.txt" text_sel_dec)
file(READ "${WORK_DIR}/sel_plain.txt" text_sel_plain)
if(NOT text_sel_dec STREQUAL text_sel_plain)
  message(FATAL_ERROR "record --select -> decode changed the payload")
endif()
execute_process(
  COMMAND ${DBITOOL} inspect sel.dbt --json
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE sel_inspect_rc
  OUTPUT_VARIABLE sel_inspect_json)
if(NOT sel_inspect_rc EQUAL 0)
  message(FATAL_ERROR "inspect --json on a mixed trace failed")
endif()
if(NOT sel_inspect_json MATCHES "\"scheme\": \"mixed\"")
  message(FATAL_ERROR "inspect --json does not flag the mixed trace:\n"
          "${sel_inspect_json}")
endif()
if(NOT EXISTS "${WORK_DIR}/sel_report.json")
  message(FATAL_ERROR "record --report did not write sel_report.json")
endif()
file(READ "${WORK_DIR}/sel_report.json" sel_report)
foreach(key "\"policy\"" "\"selection\"" "\"selected_cost\""
        "\"cost_model\":\"energy\"")
  if(NOT sel_report MATCHES "${key}")
    message(FATAL_ERROR "session report lacks ${key}:\n${sel_report}")
  endif()
endforeach()
run_dbitool(0 replay sel_plain.dbt --select predict:dc,ac,acdc
            --cost transitions --report pred_report.json)
file(READ "${WORK_DIR}/pred_report.json" pred_report)
if(NOT pred_report MATCHES "\"mode\":\"adaptive-predicted\"")
  message(FATAL_ERROR "replay --select predict report is not predicted:\n"
          "${pred_report}")
endif()
run_dbitool(0 replay sel_plain.dbt --select exact --csv)
run_dbitool(0 corpus --width 16 --bursts 512 --select exact:dc,ac
            --cost energy)
run_dbitool(64 record --corpus mixed --bursts 8 --select frobnicate
            -o x.dbt)                         # unknown selection mode
run_dbitool(64 record --corpus mixed --bursts 8 --select exact:dc,nope
            -o x.dbt)                         # unknown candidate scheme
run_dbitool(64 record --corpus mixed --bursts 8 --select exact:dc
            -o x.dbt)                         # one candidate is not a menu
run_dbitool(64 record --corpus mixed --bursts 8 --select exact
            --cost frobnicate -o x.dbt)       # unknown cost model
run_dbitool(64 record --corpus mixed --bursts 8 --cost energy
            -o x.dbt)                         # --cost without --select
run_dbitool(64 record --corpus mixed --bursts 8 --select exact
            --encode ac -o x.dbt)             # --select conflicts --encode
run_dbitool(64 replay sel_plain.dbt --select exact --scheme ac)
run_dbitool(64 corpus --select exact)         # corpus --select needs --width

# Zero-burst corpus sweep: ratios must print 0, never nan (regression).
execute_process(
  COMMAND ${DBITOOL} corpus --width 32 --bursts 0
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE corpus_rc
  OUTPUT_VARIABLE corpus_out)
if(NOT corpus_rc EQUAL 0)
  message(FATAL_ERROR "corpus --bursts 0 failed: ${corpus_rc}")
endif()
if(corpus_out MATCHES "nan")
  message(FATAL_ERROR "corpus --bursts 0 printed nan:\n${corpus_out}")
endif()

# Serving daemon: `serve --fork` returns only after the readiness
# handshake, a served `client` encode writes byte-for-byte the same
# encoded trace the offline `record --encode` pipeline does, served
# decode round-trips, `client --stats` renders Prometheus text, a
# zero-queue daemon maps kBusy to exit 75 (EX_TEMPFAIL), misuse is a
# usage error (64), and both shutdown paths — client --shutdown and
# SIGTERM via the pidfile — drain and remove the socket.
set(SOCK "${WORK_DIR}/dbid.sock")
run_dbitool(0 serve --socket "${SOCK}" --fork --pidfile dbid.pid)
if(NOT EXISTS "${WORK_DIR}/dbid.pid")
  message(FATAL_ERROR "serve --fork did not write the pidfile")
endif()
# Same corpus / seed / scheme / lanes as enc.dbt above: the daemon path
# must reproduce the offline encoded trace exactly.
run_dbitool(0 client --socket "${SOCK}" --tenant smoke
            --corpus float-tensor --bursts 2000 --seed 5
            --scheme ac --lanes 4 --req-bursts 512 -o served.dbt)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files served.dbt enc.dbt
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE served_cmp)
if(NOT served_cmp EQUAL 0)
  message(FATAL_ERROR "served encode differs from offline record --encode")
endif()
# Served verify of the same stream must report a bit-exact round trip
# (fresh tenant: session state persists per tenant name).
run_dbitool(0 client --socket "${SOCK}" --tenant smoke-verify
            --corpus float-tensor --bursts 2000 --seed 5
            --scheme ac --lanes 4 --verify)
# Served decode of the offline encoded trace must recover the payload
# (checked through the lossless text conversion against dec.txt).
run_dbitool(0 client --socket "${SOCK}" --tenant smoke-dec --decode enc.dbt
            -o served_dec.dbt)
run_dbitool(0 convert served_dec.dbt served_dec.txt)
file(READ "${WORK_DIR}/served_dec.txt" text_served_dec)
if(NOT text_served_dec STREQUAL text_dec)
  message(FATAL_ERROR "served decode changed the payload")
endif()
# Stats frame: Prometheus text with the build-info gauge and the
# tenants this smoke test created.
execute_process(
  COMMAND ${DBITOOL} client --socket "${SOCK}" --stats
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE stats_rc
  OUTPUT_VARIABLE stats_out)
if(NOT stats_rc EQUAL 0)
  message(FATAL_ERROR "client --stats failed: ${stats_rc}")
endif()
foreach(needle "dbi_build_info" "tenant=\"smoke\"")
  if(NOT stats_out MATCHES "${needle}")
    message(FATAL_ERROR "client --stats lacks ${needle}:\n${stats_out}")
  endif()
endforeach()
# Misuse: both subcommands require --socket; --verify conflicts with
# -o; unknown flags are named. All usage errors (64), never crashes.
run_dbitool(64 serve)
run_dbitool(64 client)
run_dbitool(64 client --socket "${SOCK}" --tenant x --verify -o y.dbt)
run_dbitool(64 serve --socket "${SOCK}" --lanse 4)
# Graceful drain via the protocol: --shutdown acks, then the daemon
# removes its socket on the way out.
run_dbitool(0 client --socket "${SOCK}" --shutdown)
foreach(attempt RANGE 50)
  if(NOT EXISTS "${SOCK}")
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(EXISTS "${SOCK}")
  message(FATAL_ERROR "daemon did not remove its socket after --shutdown")
endif()
# Backpressure: a zero-queue daemon rejects every data request with a
# typed kBusy frame, which the client maps to exit 75 (EX_TEMPFAIL).
set(BUSY_SOCK "${WORK_DIR}/dbid-busy.sock")
run_dbitool(0 serve --socket "${BUSY_SOCK}" --queue 0 --fork
            --pidfile busy.pid)
run_dbitool(75 client --socket "${BUSY_SOCK}" --tenant starved
            --source uniform --bursts 64 --seed 1)
# SIGTERM drain via the pidfile — the daemonized process must exit and
# clean up exactly like the protocol shutdown.
file(READ "${WORK_DIR}/busy.pid" busy_pid)
string(STRIP "${busy_pid}" busy_pid)
execute_process(COMMAND kill -TERM ${busy_pid} RESULT_VARIABLE kill_rc)
if(NOT kill_rc EQUAL 0)
  message(FATAL_ERROR "kill -TERM ${busy_pid} failed: ${kill_rc}")
endif()
foreach(attempt RANGE 50)
  if(NOT EXISTS "${BUSY_SOCK}")
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(EXISTS "${BUSY_SOCK}")
  message(FATAL_ERROR "daemon did not remove its socket after SIGTERM")
endif()
# A forked daemon that fails to start must surface the actual reason
# (here: a bind into a missing directory) — the child's stderr is
# /dev/null by then, so it travels through the readiness pipe.
execute_process(
  COMMAND ${DBITOOL} serve --socket "${WORK_DIR}/no-such-dir/x.sock" --fork
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE forkfail_rc
  OUTPUT_VARIABLE forkfail_out
  ERROR_VARIABLE forkfail_err)
if(forkfail_rc EQUAL 0)
  message(FATAL_ERROR "serve --fork into a missing directory exited 0")
endif()
if(NOT forkfail_err MATCHES "bind")
  message(FATAL_ERROR
          "fork startup failure lost its reason:\n${forkfail_err}")
endif()

# Trace lake: init / add / ls / verify round trip over mixed
# geometries (one member a v3 mixed-scheme trace), the campaign sweep
# with a deterministic consolidated JSON report and per-cell resume,
# then the documented failure modes — usage errors exit 64, stale or
# corrupt lakes exit 1.
run_dbitool(0 lake init lk)
run_dbitool(0 record --source uniform --bursts 1500 --seed 21 -o lk/n8.dbt)
run_dbitool(0 record --source uniform --width 32 --bursts 1000
            --seed 22 -o lk/w32.dbt)
run_dbitool(0 record --corpus mixed --bursts 1024 --seed 23
            --select exact:dc,ac -o lk/mix.dbt)
# add accepts both the path as typed and a name relative to the lake.
run_dbitool(0 lake add lk n8.dbt lk/w32.dbt mix.dbt)
run_dbitool(0 lake ls lk)
run_dbitool(0 lake ls lk --csv)
run_dbitool(0 lake verify lk)
run_dbitool(1 lake add lk n8.dbt)        # duplicate member
run_dbitool(1 lake add lk missing.dbt)   # no such trace
run_dbitool(64 lake)                     # missing subcommand
run_dbitool(64 lake frobnicate lk)       # unknown subcommand
run_dbitool(64 lake ls lk --jsonn x)     # unknown flag, named
execute_process(
  COMMAND ${DBITOOL} lake ls lk --json
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE lake_ls_rc
  OUTPUT_VARIABLE lake_ls_json)
if(NOT lake_ls_rc EQUAL 0)
  message(FATAL_ERROR "lake ls --json failed: ${lake_ls_rc}")
endif()
foreach(key "\"members\": 3" "\"name\": \"n8.dbt\"" "\"version\": 3"
        "\"encoded\": true")
  if(NOT lake_ls_json MATCHES "${key}")
    message(FATAL_ERROR "lake ls --json lacks ${key}:\n${lake_ls_json}")
  endif()
endforeach()

# Campaign sweep: schema probe, the encoded member becomes a
# deterministic "skipped" cell, and the consolidated report is
# byte-stable — across two fresh runs and across a --cells resume.
run_dbitool(0 sweep lk --schemes raw,ac --select exact:dc,ac
            -o sweep1.json)
run_dbitool(0 sweep lk --schemes raw,ac --select exact:dc,ac
            -o sweep2.json --cells sweep_cells)
run_dbitool(0 sweep lk --schemes raw,ac --select exact:dc,ac
            -o sweep3.json --cells sweep_cells)
foreach(other sweep2.json sweep3.json)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files sweep1.json ${other}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE sweep_cmp)
  if(NOT sweep_cmp EQUAL 0)
    message(FATAL_ERROR "lake sweep report is not byte-stable "
            "(sweep1.json vs ${other})")
  endif()
endforeach()
file(READ "${WORK_DIR}/sweep1.json" sweep_json)
foreach(key "\"schema\":\"dbi-lake-sweep-v1\"" "\"arms\":"
        "\"select-exact\"" "\"cells\":" "\"skipped\":"
        "\"transitions_per_burst\":")
  if(NOT sweep_json MATCHES "${key}")
    message(FATAL_ERROR "sweep report lacks ${key}:\n${sweep_json}")
  endif()
endforeach()
run_dbitool(64 sweep lk --schemes nope)        # unknown scheme slug
run_dbitool(64 sweep lk --schemes raw,raw)     # duplicate arm
run_dbitool(64 sweep lk --steps 5)             # --steps is text-trace only
run_dbitool(64 sweep trace.txt --schemes raw)  # lake flags on a text trace
run_dbitool(64 sweep lk --lanse 4)             # unknown flag, named

# Stale member detection: rewriting a member after cataloguing must
# fail the catalog's stat/CRC cross-check, not replay wrong bytes.
run_dbitool(0 record --source uniform --bursts 1500 --seed 99 -o lk/n8.dbt)
run_dbitool(1 lake ls lk)
run_dbitool(1 lake verify lk)
run_dbitool(1 sweep lk --schemes raw)
# A corrupted catalog is a clean, named failure (exit 1, never UB).
file(WRITE "${WORK_DIR}/lk/catalog.dbil" "garbage, not a catalog")
run_dbitool(1 lake ls lk)
run_dbitool(1 lake verify lk)
run_dbitool(1 sweep lk --schemes raw)

# Documented failure modes, each with its own exit code.
run_dbitool(2)                           # no command: usage
run_dbitool(64 frobnicate)               # unknown command: distinct code
run_dbitool(64 replay t.dbt --lanse 4)   # unknown flag: named, same code
run_dbitool(64 inspect t.dbt --csvv x)   # unknown flag on a flagless cmd
run_dbitool(64 gen --lanse)              # unknown flag, even with no value
run_dbitool(1 gen --bursts)              # known flag missing its value
run_dbitool(1 replay missing.dbt)        # runtime error
run_dbitool(1 record --corpus nope --bursts 1 -o x.dbt)
file(WRITE "${WORK_DIR}/malformed.txt" "dbi-trace v1 8 8\nab cd\n")
run_dbitool(1 stats malformed.txt)       # truncated burst line

message(STATUS "dbitool CLI smoke test passed")
