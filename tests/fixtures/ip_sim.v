// Every standard IP model, driven by a free-running counter: a show-ahead
// and a normal-mode scfifo, a dcfifo whose read clock is an alias of the
// write clock, an altsyncram, and a trace_buffer with a post-trigger
// window. Each cycle prints every model output. CI diffs
// `hwdbg sim tests/fixtures/ip_sim.v --cycles 48` against ip_sim.golden.
module ip_sim(input clk);
  reg [7:0] cnt;
  wire rdclk;
  assign rdclk = clk;

  // Show-ahead scfifo (the default): `q` presents the head; `sclr` empties
  // it once mid-run and `aclr` is left unconnected.
  wire [7:0] sa_q;
  wire sa_empty, sa_full;
  wire [2:0] sa_usedw;
  scfifo #(.WIDTH(8), .DEPTH(5)) sa (.clock(clk), .data(cnt * 8'd3),
      .wrreq(cnt[0] | cnt[3]), .rdreq(cnt[1] & ~cnt[4]), .sclr(cnt == 8'd29),
      .q(sa_q), .empty(sa_empty), .full(sa_full), .usedw(sa_usedw));

  // Normal-mode scfifo: `rdreq` pops into a registered `q`.
  wire [5:0] nm_q;
  wire nm_empty, nm_full;
  wire [1:0] nm_usedw;
  scfifo #(.WIDTH(6), .DEPTH(3), .SHOWAHEAD(0)) nm (.clock(clk),
      .data(cnt[7:2] ^ 6'h15), .wrreq(~cnt[1]), .rdreq(cnt[2] & cnt[0]),
      .sclr(1'b0), .aclr(cnt == 8'd40),
      .q(nm_q), .empty(nm_empty), .full(nm_full), .usedw(nm_usedw));

  // Dual-clock FIFO; `q` is split across a concat lvalue.
  wire [5:0] dc_hi, dc_lo;
  wire dc_rdempty, dc_wrfull;
  wire [2:0] dc_wrusedw;
  dcfifo #(.WIDTH(12), .DEPTH(6)) dc (.wrclk(clk), .rdclk(rdclk),
      .data({cnt, cnt[3:0]}), .wrreq(cnt[2] | cnt[0]), .rdreq(cnt[3]),
      .q({dc_hi, dc_lo}), .rdempty(dc_rdempty), .wrfull(dc_wrfull),
      .wrusedw(dc_wrusedw));

  // Simple dual-port RAM with a registered read port.
  wire [7:0] ram_q;
  altsyncram #(.WIDTH(8), .DEPTH(8)) ram (.clock0(clk), .data(cnt ^ 8'h5a),
      .wraddress(cnt[2:0]), .wren(cnt[1] ^ cnt[4]), .rdaddress(cnt[4:2]),
      .q(ram_q));

  // Recording IP: a 4-deep ring that stops 3 cycles after the trigger.
  wire tb_full;
  wire [31:0] tb_count;
  trace_buffer #(.WIDTH(16), .DEPTH(4), .POST(3)) tb (.clock(clk),
      .enable(cnt[0] | cnt[5]), .din({cnt, sa_q}), .trigger(cnt == 8'd33),
      .full(tb_full), .count(tb_count));

  always @(posedge clk) begin
    cnt <= cnt + 8'd1;
    $display("%0d sa q=%h e=%b f=%b u=%0d nm q=%h e=%b f=%b u=%0d",
             cnt, sa_q, sa_empty, sa_full, sa_usedw,
             nm_q, nm_empty, nm_full, nm_usedw);
    $display("%0d dc q=%h_%h e=%b f=%b u=%0d ram q=%h tb f=%b n=%0d",
             cnt, dc_hi, dc_lo, dc_rdempty, dc_wrfull, dc_wrusedw,
             ram_q, tb_full, tb_count);
  end
endmodule
