# Exercises the CLI end to end; any non-zero exit fails the test.
function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc
                  WORKING_DIRECTORY ${WORK_DIR})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}")
  endif()
endfunction()

run(${CLI} generate --kind=clusters --n=800 --seed=1 --out=cli_r.ds)
run(${CLI} generate --kind=rects --n=600 --seed=2 --out=cli_s.ds)
run(${CLI} info --data=cli_r.ds)
run(${CLI} join --r=cli_r.ds --s=cli_s.ds --k=20 --algo=am --stats)
run(${CLI} join --r=cli_r.ds --s=cli_r.ds --k=10 --self --metric=l1)
run(${CLI} join --r=cli_r.ds --s=cli_s.ds --k=10 --estimator=histogram)
run(${CLI} stream --r=cli_r.ds --s=cli_s.ds --batch=5 --batches=3)
run(${CLI} semijoin --r=cli_r.ds --s=cli_s.ds --strategy=nn --limit=5)
run(${CLI} knn --data=cli_r.ds --x=500000 --y=500000 --k=4)
run(${CLI} estimate --r=cli_r.ds --s=cli_s.ds --k=200)

# Coordinate probes through the CSV reader, for every KDJ algorithm: a NaN
# or inf row, or a finite one beyond the coordinate domain (+/-1e+150, where
# squared distances would overflow to +inf), is a usage error naming its
# line.
function(expect_csv_rejected expected)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  WORKING_DIRECTORY ${WORK_DIR})
  string(FIND "${err}" "${expected}" at)
  if(NOT rc EQUAL 2 OR at EQUAL -1)
    message(FATAL_ERROR
        "expected exit 2 with \"${expected}\", got ${rc}: ${ARGN}\n"
        "${out}${err}")
  endif()
endfunction()

file(WRITE ${WORK_DIR}/cli_probe.csv "0,0\n1,1\n")
file(WRITE ${WORK_DIR}/cli_probe_nan.csv "0,0\nnan,nan\n")
file(WRITE ${WORK_DIR}/cli_probe_inf.csv "0,0\ninf,0\n")
file(WRITE ${WORK_DIR}/cli_probe_far.csv "1e200,0\n-1e200,0\n")
foreach(algo hs b am sj)
  expect_csv_rejected("non-finite coordinate at line 2"
                      ${CLI} join --r=cli_probe_nan.csv --s=cli_probe.csv
                      --k=4 --algo=${algo})
  expect_csv_rejected("non-finite coordinate at line 2"
                      ${CLI} join --r=cli_probe.csv --s=cli_probe_inf.csv
                      --k=4 --algo=${algo})
  expect_csv_rejected("coordinate beyond +/-1e+150 at line 1"
                      ${CLI} join --r=cli_probe.csv --s=cli_probe_far.csv
                      --k=4 --algo=${algo})
endforeach()
